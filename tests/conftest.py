"""The CLI tests run the package in subprocesses, which do not see the
``pythonpath = ["src"]`` setting of pyproject.toml: put src/ on their
PYTHONPATH too, so the suite runs from a checkout without an install."""

import os


def pytest_configure(config):
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
