"""Hardened artifact loading: round-trips, named errors, provenance."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    MalformedArtifactError,
    current_git_sha,
    read_artifact,
)


class TestLoadMeans:
    def test_round_trip(self, make_artifact):
        path = make_artifact({"test_a": 0.5, "test_b": 0.125})
        assert read_artifact(path).means == {"test_a": 0.5, "test_b": 0.125}

    def test_rounds_captured(self, make_artifact):
        path = make_artifact({"test_a": 0.5}, rounds={"test_a": 7})
        artifact = read_artifact(path)
        assert artifact.rounds == {"test_a": 7}
        assert len(artifact) == 1

    def test_empty_benchmarks_is_not_an_error(self, make_artifact):
        assert read_artifact(make_artifact({})).means == {}


class TestMalformedArtifacts:
    """A bad entry raises a named error identifying the entry — no KeyError."""

    def _write(self, tmp_path, payload):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps(payload), "utf-8")
        return path

    def test_missing_mean_names_the_entry(self, tmp_path):
        path = self._write(
            tmp_path,
            {"benchmarks": [
                {"name": "test_ok", "stats": {"mean": 0.1}},
                {"name": "test_broken", "stats": {"min": 0.1}},
            ]},
        )
        with pytest.raises(MalformedArtifactError, match=r"entry #1.*test_broken.*stats\.mean"):
            read_artifact(path).means

    def test_missing_stats(self, tmp_path):
        path = self._write(tmp_path, {"benchmarks": [{"name": "test_x"}]})
        with pytest.raises(MalformedArtifactError, match="'stats'"):
            read_artifact(path).means

    def test_missing_name(self, tmp_path):
        path = self._write(tmp_path, {"benchmarks": [{"stats": {"mean": 1.0}}]})
        with pytest.raises(MalformedArtifactError, match="entry #0"):
            read_artifact(path).means

    def test_non_numeric_mean(self, tmp_path):
        path = self._write(
            tmp_path, {"benchmarks": [{"name": "test_x", "stats": {"mean": "fast"}}]}
        )
        with pytest.raises(MalformedArtifactError, match="non-numeric"):
            read_artifact(path).means

    def test_nan_mean_rejected(self, tmp_path):
        path = tmp_path / "BENCH_nan.json"
        path.write_text('{"benchmarks": [{"name": "test_x", "stats": {"mean": NaN}}]}')
        with pytest.raises(MalformedArtifactError, match="finite"):
            read_artifact(path).means

    def test_negative_mean_rejected(self, tmp_path):
        path = self._write(
            tmp_path, {"benchmarks": [{"name": "test_x", "stats": {"mean": -1.0}}]}
        )
        with pytest.raises(MalformedArtifactError, match="non-negative"):
            read_artifact(path).means

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "BENCH_torn.json"
        path.write_text('{"benchmarks": [')
        with pytest.raises(MalformedArtifactError, match="invalid JSON"):
            read_artifact(path).means

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedArtifactError, match="unreadable"):
            read_artifact(tmp_path / "nope.json").means

    def test_benchmarks_not_a_list(self, tmp_path):
        path = self._write(tmp_path, {"benchmarks": {"test_x": 1.0}})
        with pytest.raises(MalformedArtifactError, match="must be a list"):
            read_artifact(path).means


class TestProvenance:
    def test_meta_from_stock_fields(self, make_artifact):
        path = make_artifact({"test_a": 0.5}, sha="deadbeef", host="runner-7")
        meta = read_artifact(path).meta
        assert meta.git_sha == "deadbeef"
        assert meta.host == "runner-7"
        assert meta.timestamp == "2026-08-08T00:00:00"
        assert meta.source == path.name

    def test_injected_repro_run_meta_wins(self, make_artifact):
        path = make_artifact(
            {"test_a": 0.5},
            sha="stock-sha",
            extra={"repro_run_meta": {"git_sha": "injected-sha", "host": "lab"}},
        )
        meta = read_artifact(path).meta
        assert meta.git_sha == "injected-sha"
        assert meta.host == "lab"

    def test_current_git_sha_in_this_repo(self):
        sha = current_git_sha()
        assert sha is None or (len(sha) >= 7 and all(c in "0123456789abcdef" for c in sha))

    def test_current_git_sha_outside_a_repo(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        assert current_git_sha(cwd=tmp_path) is None

    def test_github_sha_env_wins(self, monkeypatch):
        monkeypatch.setenv("GITHUB_SHA", "envsha123")
        assert current_git_sha() == "envsha123"
