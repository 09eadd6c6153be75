"""Tests of tools/csv_digests.py, the CLI output digest listing."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "csv_digests.py")
_spec = importlib.util.spec_from_file_location("csv_digests", _PATH)
csv_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_digests)


def test_listing_repeats_and_names_every_csv(tmp_path):
    listings = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        listings.append(csv_digests.digest_run(str(tmp_path / name),
                                               "lake-at-rest", 8))
    assert listings[0] == listings[1]
    assert listings[0][0] == "lake-at-rest: exit 0"
    assert [line.split("  ")[1] for line in listings[0][1:]] == [
        "lake-at-rest/lake-at-rest_N8_t0.300000.csv",
        "lake-at-rest/lake-at-rest_diagnostics.csv",
        "lake-at-rest/stdout"]


def test_refuses_a_used_directory(tmp_path, capsys):
    (tmp_path / "lake-at-rest").mkdir()
    with pytest.raises(SystemExit) as err:
        csv_digests.main([str(tmp_path), "--cells", "8"])
    assert err.value.code == 2
    assert "exists" in capsys.readouterr().err
