"""Tests for the command-line interface (end-to-end over files)."""

import numpy as np
import pytest

from repro.cli import _parse_hidden, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny dataset + trained forest shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.txt"
    forest = root / "forest.json"
    assert (
        main(
            [
                "generate", str(data),
                "--queries", "60", "--docs", "12", "--seed", "1",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train-forest", str(data), str(forest),
                "--trees", "10", "--leaves", "8", "--seed", "1",
            ]
        )
        == 0
    )
    return {"root": root, "data": data, "forest": forest}


class TestParseHidden:
    def test_valid(self):
        assert _parse_hidden("400x200x100") == (400, 200, 100)

    def test_case_insensitive(self):
        assert _parse_hidden("50X25") == (50, 25)

    def test_invalid_text(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_hidden("400-200")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_hidden("400x0")


class TestGenerate(object):
    def test_writes_svmlight(self, workspace):
        text = workspace["data"].read_text()
        assert "qid:" in text
        assert len(text.splitlines()) > 400

    def test_istella_flavour(self, tmp_path):
        out = tmp_path / "ist.txt"
        assert (
            main(
                [
                    "generate", str(out), "--flavour", "istella",
                    "--queries", "20", "--docs", "10",
                ]
            )
            == 0
        )
        first = out.read_text().splitlines()[0]
        assert "220:" in first  # istella schema has 220 features


class TestTrainForest:
    def test_forest_loadable(self, workspace):
        from repro.forest import TreeEnsemble

        forest = TreeEnsemble.load(workspace["forest"])
        assert forest.n_trees == 10


class TestDistillAndPrune:
    def test_full_pipeline(self, workspace, capsys):
        root = workspace["root"]
        student_path = root / "student.json"
        code = main(
            [
                "distill", str(workspace["data"]), str(workspace["forest"]),
                str(student_path),
                "--architecture", "32x16", "--epochs", "4", "--seed", "1",
            ]
        )
        assert code == 0
        assert "distilled 32x16" in capsys.readouterr().out

        pruned_path = root / "pruned.json"
        code = main(
            [
                "prune", str(workspace["data"]), str(workspace["forest"]),
                str(student_path), str(pruned_path),
                "--epochs-prune", "2", "--epochs-finetune", "1", "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sparsity" in out

        from repro.distill import DistilledStudent

        pruned = DistilledStudent.load(pruned_path)
        assert pruned.first_layer_sparsity() > 0.5

    def test_score_with_network(self, workspace, tmp_path, capsys):
        student_path = workspace["root"] / "student.json"
        if not student_path.exists():
            pytest.skip("distill test did not run first")
        scores_path = tmp_path / "scores.txt"
        code = main(
            [
                "score", str(workspace["data"]), str(scores_path),
                "--network", str(student_path),
            ]
        )
        assert code == 0
        scores = np.loadtxt(scores_path)
        assert len(scores) > 400


class TestScore:
    def test_score_with_forest(self, workspace, tmp_path, capsys):
        scores_path = tmp_path / "scores.txt"
        code = main(
            [
                "score", str(workspace["data"]), str(scores_path),
                "--forest", str(workspace["forest"]),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "NDCG@10" in out
        assert scores_path.exists()


class TestVerify:
    def test_quick_verify_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        assert "Calibration verification" in capsys.readouterr().out


class TestPredictTime:
    def test_inline_calibration(self, capsys):
        code = main(
            [
                "predict-time", "400x200x200x100",
                "--compare-forest", "878", "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dense" in out and "pruned forecast" in out
        assert "QuickScorer 878x64" in out

    def test_with_saved_predictor(self, tmp_path, capsys):
        pred_path = tmp_path / "pred.json"
        assert main(["calibrate", str(pred_path)]) == 0
        code = main(
            [
                "predict-time", "100x50x50x25",
                "--predictor", str(pred_path),
            ]
        )
        assert code == 0
        assert "us/doc" in capsys.readouterr().out


class TestCompile:
    def test_quantize_accepts_only_none_and_int8(self, capsys):
        for value in ("int16", "auto"):
            with pytest.raises(SystemExit):
                main(["compile", "--quantize", value])
            assert "invalid choice" in capsys.readouterr().err
        code = main(
            [
                "compile", "--architecture", "16x8", "--features", "12",
                "--dtype", "float32", "--quantize", "int8",
                "--batch", "16", "--repeats", "1",
            ]
        )
        assert code == 0
        assert "int8-gemm" in capsys.readouterr().out


class TestThroughput:
    def test_sweep_reports_rates_and_hit_ratio(self, capsys):
        code = main(
            [
                "throughput",
                "--queries", "6", "--docs", "24",
                "--workers", "1", "2",
                "--shard-rows", "0", "32",
                "--cache-entries", "4096",
                "--repeats", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "docs/sec" in out
        assert "Parallel scoring" in out
        assert "hit ratio" in out
        # One speedup figure per workers x shard-rows combination.
        import re

        assert len(re.findall(r"\d+\.\d\dx", out)) == 4

    def test_quickscorer_backend_sweep(self, capsys):
        code = main(
            [
                "throughput",
                "--backend", "quickscorer",
                "--queries", "4", "--docs", "16",
                "--workers", "2",
                "--shard-rows", "0",
                "--repeats", "1",
            ]
        )
        assert code == 0
        assert "quickscorer" in capsys.readouterr().out


class TestCascade:
    def test_probe_pipeline_and_funnel(self, tmp_path, capsys):
        out_json = tmp_path / "cascade.json"
        code = main(
            [
                "cascade",
                "--queries", "6", "--docs", "16",
                "--keep", "0.4", "0.5",
                "--budget-us", "30",
                "--repeats", "1",
                "--json", str(out_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Cascade funnel" in out
        assert "budget early-exits" in out
        assert "expected amortized cost" in out
        for system in ("cascade", "pruned", "forest"):
            assert system in out

        import json

        payload = json.loads(out_json.read_text())
        assert payload["pipeline"]["budget_us_per_query"] == 30.0
        assert [s["model"] for s in payload["pipeline"]["stages"]] == [
            "pruned", "student", "forest",
        ]
        assert {row["system"] for row in payload["rows"]} == {
            "cascade", "pruned", "student", "forest",
        }
        for row in payload["rows"]:
            assert row["us_per_query"] > 0
            assert 0.0 <= row["ndcg10"] <= 1.0

    def test_unbudgeted_runs_all_stages(self, capsys):
        code = main(
            ["cascade", "--queries", "4", "--docs", "12", "--repeats", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 budget early-exits" in out


class TestServe:
    def test_concurrent_probe_requests_bit_identical(self, capsys):
        code = main(
            [
                "serve",
                "--backend", "compiled-network",
                "--queries", "6", "--docs", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-identical to sequential scoring" in out
        assert "Serving front-end" in out


class TestLoadtest:
    def test_closed_loop_with_tenants(self, tmp_path, capsys):
        out_json = tmp_path / "load.json"
        code = main(
            [
                "loadtest",
                "--mode", "closed",
                "--workers", "4", "--requests-per-worker", "5",
                "--distinct-queries", "8", "--docs", "4",
                "--tenant", "web=3::0",
                "--tenant", "limited=1:1",
                "--slo-us", "60000",
                "--json", str(out_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Load run (closed): 20 offered" in out
        assert "limited" in out and "web" in out
        import json

        payload = json.loads(out_json.read_text())
        assert payload["load"]["offered"] == 20
        assert any(
            s["name"].startswith("serving.")
            for s in payload["metrics"]["series"]
        )

    def test_spec_file_round_trip(self, tmp_path, capsys):
        import json

        from repro.serving import LoadSpec

        spec_path = tmp_path / "spec.json"
        spec = LoadSpec(
            mode="closed", workers=2, requests_per_worker=3,
            n_queries=4, docs_per_query=4,
        )
        spec_path.write_text(json.dumps(spec.to_dict()))
        code = main(["loadtest", "--spec", str(spec_path)])
        assert code == 0
        assert "6 offered" in capsys.readouterr().out

    def test_tenant_parse_rejects_garbage(self):
        import argparse

        from repro.cli import _parse_tenant

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_tenant("no-equals-sign")
        name, weight, cfg = _parse_tenant("sla=2::0:8000")
        assert (name, weight) == ("sla", 2.0)
        assert cfg.priority == 0 and cfg.deadline_us == 8000.0
        assert cfg.rate_per_s is None

    def test_swap_at_records_timeline(self, tmp_path, capsys):
        import json

        out_json = tmp_path / "load.json"
        code = main(
            [
                "loadtest",
                "--mode", "closed",
                "--workers", "4", "--requests-per-worker", "5",
                "--distinct-queries", "8", "--docs", "4",
                "--swap-at", "0.5",
                "--json", str(out_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "swap at" in out and "forced" in out
        assert "served by version" in out
        payload = json.loads(out_json.read_text())
        events = payload["load"]["swap_events"]
        assert len(events) == 1 and events[0]["action"] == "forced"
        by_version = payload["load"]["served_by_version"]
        assert set(by_version) == {"v1", "v2"}
        assert sum(by_version.values()) == payload["load"]["served"]
        assert payload["load"]["errors"] == 0


class TestSwap:
    def test_gate_promotes_and_rolls_back(self, tmp_path, capsys):
        import json

        out_json = tmp_path / "lifecycle.json"
        code = main(
            [
                "swap",
                "--queries", "6", "--docs", "8", "--requests", "8",
                "--shadow-min", "6", "--regressed",
                "--json", str(out_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gate PASSED" in out and "gate TRIPPED" in out
        assert "Model lifecycle" in out
        # the regressed candidate must not end up live
        assert out.rstrip().count("active version: candidate") == 2
        payload = json.loads(out_json.read_text())
        kinds = [e["kind"] for e in payload["swap_events"]]
        assert "promoted" in kinds and "rolled-back" in kinds


class TestTrace:
    def test_probe_load_renders_slowest_timelines(self, capsys):
        code = main(
            [
                "trace",
                "--workers", "4", "--requests-per-worker", "4",
                "--docs", "6", "--slowest", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace " in out and "status=ok" in out
        # A full timeline renders every post-enqueue stage.
        for stage in ("queue-wait", "coalesce", "kernel", "respond"):
            assert stage in out
        assert "2 trace(s) shown" in out

    def test_flight_file_and_prefix_match(self, tmp_path, capsys):
        import json

        records = [
            {
                "trace_id": "aaaa000011112222",
                "tenant": "web",
                "status": "ok",
                "n_docs": 4,
                "batch_id": 1,
                "wall_us": 1500.0,
                "attrs": {},
                "stages": [
                    {
                        "name": "kernel",
                        "start_us": 0.0,
                        "duration_us": 1500.0,
                        "attrs": {"backend": "compiled-network"},
                    }
                ],
            },
            {
                "trace_id": "bbbb000011112222",
                "tenant": "batch",
                "status": "shed",
                "n_docs": 4,
                "wall_us": 10.0,
                "attrs": {"reason": "rate-limit"},
                "stages": [],
            },
        ]
        path = tmp_path / "flight.json"
        path.write_text(json.dumps({"records": records}))
        code = main(["trace", "aaaa", "--flight", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "aaaa000011112222" in out and "bbbb" not in out
        assert "backend=compiled-network" in out

    def test_flight_file_trace_sample_form(self, tmp_path, capsys):
        import json

        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(
                {
                    "trace_sample": {
                        "trace_id": "cafecafecafecafe",
                        "tenant": "web",
                        "status": "ok",
                        "wall_us": 900.0,
                        "stages": [],
                    }
                }
            )
        )
        assert main(["trace", "--flight", str(path)]) == 0
        assert "cafecafecafecafe" in capsys.readouterr().out

    def test_unmatched_prefix_fails(self, tmp_path, capsys):
        import json

        path = tmp_path / "flight.json"
        path.write_text(json.dumps([]))
        assert main(["trace", "zzzz", "--flight", str(path)]) == 1


class TestTop:
    def test_renders_frames_and_final_report(self, capsys):
        code = main(
            [
                "top",
                "--duration", "0.3", "--rate", "150",
                "--docs", "6", "--interval", "0.05", "--frames", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top [final]" in out
        assert "Serving front-end" in out
        assert "SLO burn" in out
        assert "Flight recorder" in out
        assert "Load run (open)" in out
