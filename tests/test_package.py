"""Package metadata."""

import tomllib
from pathlib import Path

import multicast_aoi


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert multicast_aoi.__version__ == declared
