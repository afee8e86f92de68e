"""Repo hygiene guards: no compiled artifacts may enter the tree.

A ``src/repro/fabric/__pycache__`` directory once leaked into listings;
these guards make the regression impossible to miss: the VCS index must
never carry byte-compiled artifacts, and ``.gitignore`` must keep
covering the patterns that prevent them from being added.
"""

import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def tracked_files() -> list[str]:
    result = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.splitlines()


@pytest.mark.skipif(
    not (REPO_ROOT / ".git").exists(),
    reason="not a git checkout (e.g. a git archive export): "
    "no index to inspect",
)
def test_no_tracked_compiled_artifacts():
    offenders = [
        path
        for path in tracked_files()
        if "__pycache__" in path
        or path.endswith((".pyc", ".pyo"))
        or ".egg-info" in path
    ]
    assert offenders == [], (
        f"compiled artifacts are tracked: {offenders}; "
        f"git rm -r --cached them"
    )


def test_gitignore_covers_compiled_artifacts():
    patterns = (REPO_ROOT / ".gitignore").read_text().split()
    for required in ("__pycache__/", "*.pyc"):
        assert required in patterns, (
            f".gitignore lost the {required!r} pattern"
        )
