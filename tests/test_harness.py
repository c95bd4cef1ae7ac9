"""Tests of the parallel experiment harness: worker-count determinism,
the content-hashed result cache, the golden regression gate, and the
``run``/``regress`` CLI.

The determinism tests are the satellite regression required by the
harness design: the same sweep run at ``--jobs 1`` and ``--jobs 4``
must serialize byte-identically, because every sweep point is a pure
function of its explicitly seeded parameters.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import replace

import numpy
import pytest

from repro.errors import ConfigurationError
from repro.harness import (
    Claim,
    ResultCache,
    SweepPoint,
    SweepSpec,
    all_specs,
    bless,
    check_claims,
    check_digests,
    content_key,
    get_spec,
    load_golden,
    package_digest,
    run_experiment,
)
import repro.harness.cache as cache_module
from repro.harness.golden import quantity_changes, result_digests
from repro.harness.cli import main as harness_cli
from repro.harness.registry import EXPERIMENT_MODULES


# ----------------------------------------------------------------------
# A tiny but real sweep: four short Section-4 simulation points.

def tiny_sim_spec() -> SweepSpec:
    def points(scale: str) -> list[SweepPoint]:
        del scale
        return [
            SweepPoint(
                experiment="tinysim",
                key=f"{scheduler}/rate={rate}",
                func="repro.sim.runner:poisson_point",
                params={
                    "scheduler": scheduler,
                    "rate": rate,
                    "seeds": [0],
                    "duration": 0.03,
                },
            )
            for scheduler in ("conventional", "ldlp")
            for rate in (2000, 8000)
        ]

    def quantities(points, results):
        return {
            "ldlp_total_misses_8000": results["ldlp/rate=8000"]["misses"][
                "instruction"
            ]
            + results["ldlp/rate=8000"]["misses"]["data"]
        }

    return SweepSpec(
        name="tinysim",
        points=points,
        quantities=quantities,
        render=lambda points, results: "",
    )


@pytest.fixture
def package_copy(tmp_path, monkeypatch):
    """A copy of the ``repro`` sources that ``package_digest`` hashes
    instead of the real package for the duration of one test."""
    copy = tmp_path / "repro"
    shutil.copytree(
        cache_module._PACKAGE_ROOT, copy,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    monkeypatch.setattr(cache_module, "_PACKAGE_ROOT", copy)
    package_digest.cache_clear()
    yield copy
    package_digest.cache_clear()


class TestWorkerDeterminism:
    def test_jobs1_equals_jobs4(self, tmp_path):
        """The satellite regression: identical bytes at any job count."""
        spec = tiny_sim_spec()
        serial = run_experiment(
            spec, jobs=1, cache=ResultCache(tmp_path / "a")
        )
        parallel = run_experiment(
            spec, jobs=4, cache=ResultCache(tmp_path / "b")
        )
        assert result_digests(serial.results) == result_digests(parallel.results)
        assert serial.computed == parallel.computed == 4

    def test_result_order_is_declared_order(self, tmp_path):
        spec = tiny_sim_spec()
        run = run_experiment(spec, jobs=4, cache=ResultCache(tmp_path))
        assert list(run.results) == [point.key for point in run.points]

    def test_jobs_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_experiment(
                tiny_sim_spec(), jobs=0, cache=ResultCache(tmp_path)
            )


class TestResultCache:
    def test_second_run_is_fully_cached_and_identical(self, tmp_path):
        spec = tiny_sim_spec()
        cache = ResultCache(tmp_path)
        first = run_experiment(spec, jobs=1, cache=cache)
        second = run_experiment(spec, jobs=1, cache=cache)
        assert first.computed == 4 and first.cache_hits == 0
        assert second.computed == 0 and second.cache_hits == 4
        assert second.hit_rate == 1.0
        assert result_digests(first.results) == result_digests(second.results)

    def test_disabled_cache_always_recomputes(self, tmp_path):
        spec = tiny_sim_spec()
        cache = ResultCache(tmp_path, enabled=False)
        run_experiment(spec, jobs=1, cache=cache)
        again = run_experiment(spec, jobs=1, cache=cache)
        assert again.computed == 4
        assert not any(tmp_path.rglob("*.json"))

    def test_key_depends_on_params(self):
        spec = tiny_sim_spec()
        a, b = spec.points_for("ci")[:2]
        assert content_key(a) != content_key(b)
        assert content_key(a) == content_key(a)

    def test_key_depends_on_sources(self, package_copy):
        """A byte edit anywhere in the package changes every key — here
        a protocol module no sweep point imports."""
        point = get_spec("figure5").points_for("ci")[0]
        before = content_key(point)
        edited = package_copy / "protocols" / "udp.py"
        edited.write_bytes(edited.read_bytes() + b"\n")
        package_digest.cache_clear()
        assert content_key(point) != before

    def test_package_digest_keys_files_by_relative_path(
        self, package_copy, monkeypatch
    ):
        """A copy of the package digests like the original, so the key
        survives a fresh checkout; renaming a file changes it."""
        copied = package_digest()
        (package_copy / "units.py").rename(package_copy / "units2.py")
        package_digest.cache_clear()
        assert package_digest() != copied
        monkeypatch.undo()  # hash the real package again
        package_digest.cache_clear()
        assert package_digest() == copied and len(copied) == 64

    def test_entries_are_stored_flat(self, tmp_path):
        run_experiment(tiny_sim_spec(), jobs=1, cache=ResultCache(tmp_path))
        stored = sorted(tmp_path.iterdir())
        assert len(stored) == 4
        assert all(path.is_file() and path.suffix == ".json" for path in stored)


class TestGoldenGate:
    def test_bless_then_check_passes(self, tmp_path):
        spec = tiny_sim_spec()
        run = run_experiment(spec, jobs=1, cache=ResultCache(tmp_path / "c"))
        quantities = run.quantities(spec)
        bless(spec, "ci", quantities, run.results, root=tmp_path / "g")
        golden = load_golden("tinysim", "ci", root=tmp_path / "g")
        assert golden.quantities == quantities
        assert check_digests("tinysim", golden, run.results) == []
        assert check_claims(spec, run.points, run.results) == []

    def test_perturbation_fails(self, tmp_path):
        """A deliberate model perturbation must trip the gate, and the
        reported quantities say what it moved."""
        spec = tiny_sim_spec()
        run = run_experiment(spec, jobs=1, cache=ResultCache(tmp_path / "c"))
        quantities = run.quantities(spec)
        bless(spec, "ci", quantities, run.results, root=tmp_path / "g")
        golden = load_golden("tinysim", "ci", root=tmp_path / "g")
        perturbed = json.loads(json.dumps(run.results))
        perturbed["ldlp/rate=8000"]["misses"]["data"] *= 1.5
        breaches = check_digests("tinysim", golden, perturbed)
        assert len(breaches) == 1
        assert "tinysim/ldlp/rate=8000: result digest" in breaches[0]
        (moved,) = quantity_changes(
            "tinysim", golden.quantities, spec.quantities(run.points, perturbed)
        )
        assert moved.startswith("tinysim.ldlp_total_misses_8000: ")

    def test_missing_golden_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_golden("nope", "ci", root=tmp_path)


class TestSpecs:
    def test_every_experiment_declares_a_sweep(self):
        specs = all_specs()
        assert len(specs) == len(EXPERIMENT_MODULES)
        for spec in specs:
            points = spec.points_for("ci")
            assert points, spec.name
            for point in points:
                # Params must be JSON-round-trippable for the cache.
                assert json.loads(json.dumps(point.params)) == point.params
                assert point.resolve() is not None

    def test_unknown_experiment_and_scale(self):
        with pytest.raises(ConfigurationError):
            get_spec("figure99")
        with pytest.raises(ConfigurationError):
            get_spec("figure5").points_for("huge")

    def test_duplicate_point_keys_rejected(self):
        spec = SweepSpec(
            name="dup",
            points=lambda scale: [
                SweepPoint("dup", "same", "repro.sim.runner:poisson_point", {}),
                SweepPoint("dup", "same", "repro.sim.runner:poisson_point", {}),
            ],
            quantities=lambda points, results: {},
            render=lambda points, results: "",
        )
        with pytest.raises(ConfigurationError):
            spec.points_for("ci")

    def test_figure5_figure6_share_cached_points(self, tmp_path):
        """The two figures are views of the same simulations: the points
        figure5 computes are cache hits for figure6, and serve it the
        same bytes a cache-less run computes."""
        cache = ResultCache(tmp_path)
        run_experiment(get_spec("figure5"), scale="ci", cache=cache)
        shared = run_experiment(get_spec("figure6"), scale="ci", cache=cache)
        fresh = run_experiment(
            get_spec("figure6"), scale="ci", cache=ResultCache(enabled=False)
        )
        assert shared.cache_hits == 6
        assert result_digests(shared.results) == result_digests(fresh.results)


def bless_into(tmp_path, *names: str) -> list[str]:
    """Bless ``names`` into fresh goldens over a fresh cache under
    ``tmp_path``; return the matching ``regress`` arguments."""
    args = [
        *names,
        "--cache-dir", str(tmp_path / "cache"),
        "--goldens-dir", str(tmp_path / "goldens"),
    ]
    assert harness_cli(["regress", *args, "--bless"]) == 0
    return args


def edit_json(path, edit) -> None:
    """Rewrite the JSON file at ``path`` through ``edit(data)``."""
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def with_false_claim(monkeypatch) -> None:
    """Give the registered schedules spec one claim that never holds."""
    from repro.experiments import schedules

    claim = Claim("schedules run backwards", "Fig. 3", lambda points, results: False)
    monkeypatch.setattr(
        schedules, "SWEEP",
        replace(schedules.SWEEP, claims=(*schedules.SWEEP.claims, claim)),
    )


class TestDigestGate:
    """``regress`` pins every point's result bytes exactly."""

    def test_bless_records_a_digest_for_every_point(self, tmp_path, capsys):
        args = bless_into(tmp_path, "figure8", "schedules")
        for name in ("figure8", "schedules"):
            golden = load_golden(name, "ci", root=tmp_path / "goldens")
            keys = [point.key for point in get_spec(name).points_for("ci")]
            assert sorted(golden.digests) == sorted(keys)
            assert all(len(digest) == 64 for digest in golden.digests.values())
            assert golden.numpy == numpy.__version__
        capsys.readouterr()
        assert harness_cli(["regress", *args, "--expect-cached"]) == 0
        out = capsys.readouterr().out
        assert "figure8: 4 points, 4 cached (100%), 0 computed" in out
        assert "PASS    figure8: 4 point digests match" in out

    def test_one_ulp_in_a_cached_result_fails_naming_the_point(
        self, tmp_path, capsys
    ):
        """One ulp is not the same bytes."""
        args = bless_into(tmp_path, "figure8")
        point = get_spec("figure8").points_for("ci")[0]
        (entry,) = [
            path for path in (tmp_path / "cache").iterdir()
            if json.loads(path.read_text())["point_key"] == point.key
        ]

        def nudge(data):
            cycles = data["result"]["cycles"]
            cycles[0] = math.nextafter(cycles[0], math.inf)

        edit_json(entry, nudge)
        capsys.readouterr()
        assert harness_cli(["regress", *args]) == 1
        out = capsys.readouterr().out
        assert "FAIL    figure8: 1 failed check(s)" in out
        assert f"figure8/{point.key}: result digest" in out

    def test_tampered_missing_and_extra_digests_fail(self, tmp_path, capsys):
        args = bless_into(tmp_path, "figure8")
        tampered, dropped = sorted(
            point.key for point in get_spec("figure8").points_for("ci")
        )[:2]

        def tamper(data):
            data["digests"][tampered] = "0" * 64
            del data["digests"][dropped]
            data["digests"]["ghost"] = "0" * 64

        edit_json(tmp_path / "goldens" / "figure8.ci.json", tamper)
        capsys.readouterr()
        assert harness_cli(["regress", *args]) == 1
        out = capsys.readouterr().out
        assert "FAIL    figure8: 3 failed check(s)" in out
        assert f"figure8/{tampered}: result digest" in out
        assert f"figure8/{dropped}: point has no golden digest" in out
        assert "figure8/ghost: golden digest but no such point" in out
        assert "numpy" not in out

    def test_numpy_mismatch_names_both_versions(self, tmp_path, capsys):
        args = bless_into(tmp_path, "schedules")

        def tamper(data):
            data["numpy"] = "0.0.1"
            data["digests"]["ldlp"] = "0" * 64

        edit_json(tmp_path / "goldens" / "schedules.ci.json", tamper)
        capsys.readouterr()
        assert harness_cli(["regress", *args]) == 1
        out = capsys.readouterr().out
        assert "schedules/ldlp: result digest" in out
        assert "numpy 0.0.1" in out and f"numpy {numpy.__version__}" in out

    def test_every_failed_check_is_listed_in_one_block(
        self, tmp_path, capsys, monkeypatch
    ):
        """Failed claims, digest mismatches and ``--expect-cached``
        recomputes are all reported, none hiding another, with the
        quantities that moved beside the digest failure."""
        args = bless_into(tmp_path, "schedules")

        def tamper(data):
            data["digests"]["ldlp"] = "0" * 64
            data["quantities"]["ldlp_order_crc"] += 1

        edit_json(tmp_path / "goldens" / "schedules.ci.json", tamper)
        shutil.rmtree(tmp_path / "cache")
        with_false_claim(monkeypatch)
        capsys.readouterr()
        assert harness_cli(["regress", *args, "--expect-cached"]) == 1
        out = capsys.readouterr().out
        assert "FAIL    schedules: 3 failed check(s)" in out
        assert "claim 'schedules run backwards' (Fig. 3) does not hold" in out
        assert "schedules/ldlp: result digest" in out
        assert "schedules.ldlp_order_crc: " in out
        assert "3 points were recomputed" in out


class TestHarnessCli:
    def test_run_and_regress_roundtrip(self, tmp_path, capsys, monkeypatch):
        """``run`` and ``regress`` write the cache and the goldens and
        nothing else into the working directory."""
        monkeypatch.chdir(tmp_path)
        args = ["schedules", "--cache-dir", "cache", "--scale", "ci"]
        assert harness_cli(["run", *args, "--no-render"]) == 0
        goldens = ["--goldens-dir", "goldens"]
        assert harness_cli(["regress", *args, *goldens, "--bless"]) == 0
        assert harness_cli(
            ["regress", *args, *goldens, "--expect-cached"]
        ) == 0
        out = capsys.readouterr().out
        assert "PASS    schedules" in out
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "cache", "goldens",
        ]

    def test_regress_fails_without_golden(self, tmp_path, capsys):
        assert harness_cli([
            "regress", "schedules",
            "--cache-dir", str(tmp_path / "cache"),
            "--goldens-dir", str(tmp_path / "empty"),
        ]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_regress_detects_drift(self, tmp_path, capsys):
        """A 1-ulp drift in a cached figure8 result fails the digest and
        prints the quantity it moved, old value then new."""
        args = bless_into(tmp_path, "figure8")
        (entry,) = [
            path for path in (tmp_path / "cache").iterdir()
            if json.loads(path.read_text())["point_key"] == "bsd/warm"
        ]

        def nudge(data):
            cycles = data["result"]["cycles"]
            cycles[-1] = math.nextafter(cycles[-1], math.inf)

        edit_json(entry, nudge)
        capsys.readouterr()
        assert harness_cli(["regress", *args]) == 1
        out = capsys.readouterr().out
        assert "figure8/bsd/warm: result digest" in out
        assert (
            f"figure8.bsd_warm_at_1000: 836.0 → {math.nextafter(836.0, math.inf)!r}"
            in out
        )

    def test_false_claim_fails_naming_it_and_its_citation(
        self, tmp_path, capsys, monkeypatch
    ):
        """A claim the results break fails ``regress`` (and ``--bless``
        refuses the run) with the claim and its citation named."""
        args = bless_into(tmp_path, "schedules")
        golden = tmp_path / "goldens" / "schedules.ci.json"
        blessed = golden.read_text()
        with_false_claim(monkeypatch)
        capsys.readouterr()
        assert harness_cli(["regress", *args]) == 1
        out = capsys.readouterr().out
        assert "FAIL    schedules: 1 failed check(s)" in out
        assert "schedules: claim 'schedules run backwards' (Fig. 3) does not hold" in out
        assert harness_cli(["regress", *args, "--bless"]) == 1
        assert golden.read_text() == blessed

    def test_edited_quantity_with_matching_digests_passes(self, tmp_path, capsys):
        """Quantities are a report: with every digest matching, an edited
        golden quantity does not fail the gate."""
        args = bless_into(tmp_path, "figure8")

        def edit(data):
            data["quantities"]["simple_warm_at_1000"] += 1

        edit_json(tmp_path / "goldens" / "figure8.ci.json", edit)
        capsys.readouterr()
        assert harness_cli(["regress", *args]) == 0
        out = capsys.readouterr().out
        assert "PASS    figure8: 4 point digests match, 3 claim(s) hold" in out
        assert "holds: cold-start intercepts are exactly 426 (4.4BSD)" in out

    def test_malformed_golden_fails_only_its_experiment(self, tmp_path, capsys):
        """A golden that does not parse is one FAIL line, and the gate
        goes on to check the next experiment."""
        cache = ["--cache-dir", str(tmp_path / "cache")]
        goldens = ["--goldens-dir", str(tmp_path / "goldens")]
        names = ["schedules", "table3"]
        assert harness_cli(["regress", *names, *cache, *goldens, "--bless"]) == 0
        (tmp_path / "goldens" / "schedules.ci.json").write_text('{"quantities": []}')
        capsys.readouterr()
        assert harness_cli(["regress", *names, *cache, *goldens]) == 1
        out = capsys.readouterr().out
        assert "FAIL    schedules: 1 failed check(s)" in out
        assert "malformed golden" in out
        assert "PASS    table3" in out

    def test_unknown_experiment_is_a_usage_error(self, tmp_path, capsys):
        """A bad name is rejected before the valid one before it runs."""
        with pytest.raises(SystemExit) as exit_info:
            harness_cli([
                "regress", "figure5", "nosuch",
                "--cache-dir", str(tmp_path / "cache"),
            ])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "nosuch" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "cache").exists()

    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            harness_cli([
                "run", "schedules", "--jobs", "0",
                "--cache-dir", str(tmp_path / "cache"),
            ])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_top_level_cli_dispatches(self, tmp_path, capsys):
        from repro.experiments.cli import main as top_main

        assert top_main([
            "run", "schedules",
            "--cache-dir", str(tmp_path / "cache"),
            "--no-render",
        ]) == 0
        assert "schedules" in capsys.readouterr().out
