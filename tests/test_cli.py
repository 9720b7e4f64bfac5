import json
import os

import pytest

from dualitylab.cli import main
from dualitylab.market import ExampleMarketSpec, build_example_market, model_to_dict, save_model

from conftest import arbitrage_model, single_path_model


@pytest.fixture()
def binom_path(tmp_path):
    path = tmp_path / "binom.json"
    save_model(build_example_market(ExampleMarketSpec(1, (0.6,))), path)
    return str(path)


@pytest.fixture()
def example3_path(tmp_path):
    path = tmp_path / "ex3.json"
    save_model(build_example_market(ExampleMarketSpec(3, (0.55, 0.6, 0.65))), path)
    return str(path)


@pytest.fixture(params=["int", "str"])
def binom_ids_path(request, tmp_path):
    """The p = 0.6 one-period market, its node ids 0, 1, 2 as ints or strings."""
    spec = model_to_dict(build_example_market(ExampleMarketSpec(1, (0.6,))))
    if request.param == "str":
        for node in spec["nodes"]:
            node["id"] = str(node["id"])
            if node["parent"] is not None:
                node["parent"] = str(node["parent"])
    path = tmp_path / f"binom_{request.param}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestValidate:
    def test_valid_model(self, binom_path, tmp_path):
        out = tmp_path / "out"
        assert main(["validate", "--model", binom_path, "--out", str(out)]) == 0
        doc = read_json(out / "validation.json")
        assert doc["passed"] is True
        assert doc["nodes"] == 3
        assert "generated_at" in doc["meta"]

    def test_clock_violation_exits_2(self, tmp_path):
        bad = {
            "nodes": [
                {"id": 0, "t": 0, "parent": None},
                {"id": 1, "t": 1, "parent": 0, "prob": 1.0},
            ],
            "prices": {"0": [], "1": []},
            "clock": {"0": 0.0, "1": 0.0},
            "A": 1.0,
            "n_active": 0,
        }
        path = tmp_path / "bad.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        assert main(["validate", "--model", str(path)]) == 2

    def test_missing_model_exits_1(self):
        assert main(["validate", "--model", "nope.json"]) == 1

    def test_model_required(self):
        assert main(["validate"]) == 1


class TestSolvers:
    def test_solve_primal_matches_oracle(self, binom_path, tmp_path):
        out = tmp_path / "o"
        code = main([
            "solve-primal", "--model", binom_path, "--utility", "log",
            "--x", "1.0", "--out", str(out),
        ])
        assert code == 0
        doc = read_json(out / "primal.json")
        assert doc["value"] == pytest.approx(0.1483417, abs=1e-6)
        assert (out / "primal_spend.dat").exists()
        assert (out / "primal_wealth.dat").exists()

    def test_solve_dual_matches_oracle(self, binom_path, tmp_path):
        out = tmp_path / "o"
        code = main([
            "solve-dual", "--model", binom_path, "--utility", "log",
            "--y", "1.0", "--out", str(out),
        ])
        assert code == 0
        doc = read_json(out / "dual.json")
        assert doc["value"] == pytest.approx(-0.8516583, abs=1e-6)
        assert doc["attained_on_boundary"] is False

    def test_utility_spec_file(self, binom_path, tmp_path):
        spec = tmp_path / "utility.json"
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"family": "power", "gamma": 0.5}, fh)
        out = tmp_path / "o"
        code = main([
            "solve-primal", "--model", binom_path, "--utility", str(spec),
            "--x", "1.0", "--out", str(out),
        ])
        assert code == 0

    def test_bad_utility_shorthand_exits_1(self, binom_path):
        assert main(["solve-primal", "--model", binom_path, "--utility", "what"]) == 1


    @pytest.mark.parametrize("command", [
        ["solve-primal", "--utility", "log", "--x", "1.0"],
        ["solve-dual", "--utility", "log", "--y", "1.0"],
        ["superrep"],
    ])
    def test_arbitrage_names_the_node(self, command, tmp_path, capsys):
        path = tmp_path / "arb.json"
        save_model(arbitrage_model(), path)
        code = main(command[:1] + ["--model", str(path)] + command[1:] + ["--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "admits arbitrage at node 0: holdings [1.]" in err


class TestReports:
    def test_duality_report_strict_passes(self, binom_path, tmp_path):
        out = tmp_path / "o"
        code = main([
            "duality-report", "--model", binom_path, "--utility", "log",
            "--x", "1.0", "--strict", "--out", str(out),
        ])
        assert code == 0
        doc = read_json(out / "duality_report.json")
        assert doc["worst_marginal_rel"] < 1e-6
        assert doc["conjugacy_gap"] < 1e-6
        assert doc["passed"] is True

    def test_duality_report_strict_fails_on_tiny_tolerance(self, binom_path, tmp_path):
        code = main([
            "duality-report", "--model", binom_path, "--utility", "log",
            "--x", "1.0", "--strict", "--check-tol", "1e-18",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 4

    def test_superrep_default_claim(self, binom_path, tmp_path):
        out = tmp_path / "o"
        code = main(["superrep", "--model", binom_path, "--strict", "--out", str(out)])
        assert code == 0
        doc = read_json(out / "superrep.json")
        assert doc["price"] == pytest.approx(1.0, abs=1e-8)
        assert doc["gap"] <= 1e-8

    def test_superrep_custom_claim(self, binom_path, tmp_path):
        claim = tmp_path / "claim.json"
        # digital claim paying on the up leaf (node id 1)
        with open(claim, "w", encoding="utf-8") as fh:
            json.dump({"1": 1.0}, fh)
        out = tmp_path / "o"
        code = main([
            "superrep", "--model", binom_path, "--claim", str(claim),
            "--out", str(out),
        ])
        assert code == 0
        doc = read_json(out / "superrep.json")
        assert doc["price"] == pytest.approx(1.0 / 3.0, abs=1e-8)


class TestNodeIdKeys:
    # Claim and weight files key nodes by JSON strings; "1" must name node 1
    # whether the model's ids are ints or strings.
    def test_claim_keys(self, binom_ids_path, tmp_path):
        claim = tmp_path / "claim.json"
        with open(claim, "w", encoding="utf-8") as fh:
            json.dump({"1": 1.0}, fh)
        out = tmp_path / "o"
        code = main(["superrep", "--model", binom_ids_path, "--claim", str(claim), "--out", str(out)])
        assert code == 0
        assert read_json(out / "superrep.json")["price"] == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_weight_keys(self, binom_ids_path, tmp_path):
        spec = tmp_path / "utility.json"
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"family": "log", "weights": {"1": 3.0}}, fh)
        out = tmp_path / "o"
        code = main([
            "solve-primal", "--model", binom_ids_path, "--utility", str(spec),
            "--x", "1.0", "--out", str(out),
        ])
        assert code == 0
        assert read_json(out / "primal.json")["value"] == pytest.approx(1.096581674118621, abs=1e-8)


class TestSweeps:
    def test_converge_outputs(self, example3_path, tmp_path):
        out = tmp_path / "o"
        code = main([
            "converge", "--model", example3_path, "--utility", "log",
            "--grid-points", "4", "--grid-min", "0.5", "--grid-max", "2.0",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "convergence.csv").exists()
        doc = read_json(out / "convergence_summary.json")
        assert doc["levels"] == [1, 2, 3]
        assert doc["u_monotone_worst_drop"] <= 1e-7
        for n in (1, 2, 3):
            for kind in ("u", "v", "du", "dv"):
                assert (out / f"curve_{kind}_n{n}.dat").exists()

    def test_example_outputs(self, tmp_path):
        out = tmp_path / "o"
        code = main([
            "example", "--n-max", "3", "--p-start", "0.5", "--p-step", "0.05",
            "--out", str(out),
        ])
        assert code == 0
        with open(out / "example.csv", newline="", encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header == "N,i,holding,bound,value"
        doc = read_json(out / "example_summary.json")
        assert doc["levels"] == [1, 2, 3]
        assert doc["chain_ok"] is True
        assert doc["values"][0] > doc["bond_only_value"]

    def test_example_below_threshold_exits_1(self, tmp_path):
        code = main([
            "example", "--n-max", "2", "--p-start", "0.34", "--p-step", "0.01",
            "--utility", "bounded:0.5,2", "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    @pytest.mark.parametrize("utility", ["log", "power:0.5"])
    def test_example_needs_bounded_utility(self, tmp_path, utility):
        # An explicit log field is refused like any other non-bounded one;
        # only an absent --utility selects the bounded default.
        code = main([
            "example", "--n-max", "2", "--utility", utility, "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert not (tmp_path / "o" / "example.csv").exists()

    def test_deterministic_reruns(self, example3_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "converge", "--model", example3_path, "--utility", "log",
                "--grid-points", "3", "--grid-min", "0.5", "--grid-max", "2.0",
                "--out", str(out),
            ])
            assert code == 0
            outs.append(out)
        csv_a = (outs[0] / "convergence.csv").read_bytes()
        csv_b = (outs[1] / "convergence.csv").read_bytes()
        assert csv_a == csv_b
        for fname in os.listdir(outs[0]):
            if fname.endswith(".dat"):
                assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        doc_a = read_json(outs[0] / "convergence_summary.json")
        doc_b = read_json(outs[1] / "convergence_summary.json")
        doc_a.pop("meta")
        doc_b.pop("meta")
        assert doc_a == doc_b


class TestConfigFile:
    def test_flags_override_config(self, binom_path, tmp_path):
        cfg = tmp_path / "run.json"
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"model": binom_path, "utility": "log", "x": 2.0}, fh)
        out = tmp_path / "o"
        code = main([
            "solve-primal", "--config", str(cfg), "--x", "1.0", "--out", str(out),
        ])
        assert code == 0
        doc = read_json(out / "primal.json")
        assert doc["x"] == 1.0

    def test_unknown_config_field_exits_1(self, tmp_path):
        cfg = tmp_path / "run.json"
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"frobnicate": True}, fh)
        assert main(["validate", "--config", str(cfg)]) == 1

    def test_bad_json_exits_1(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        assert main(["validate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("command, utility, config", [
        ("solve-primal", "bounded:0.5", {}),
        ("solve-primal", "bounded:0.5,2,3", {}),
        ("solve-primal", "power:abc", {}),
        ("solve-primal", "log", {"x": "abc"}),
        ("converge", "log", {"n_max": "3"}),
        ("converge", "log", {"grid_points": 2.5}),
    ])
    def test_unparsable_values_exit_1(self, example3_path, tmp_path, capsys,
                                      command, utility, config):
        cfg = tmp_path / "run.json"
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code = main([
            command, "--config", str(cfg), "--model", example3_path,
            "--utility", utility, "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err


def test_env_guard_maps_to_model_exit(monkeypatch, tmp_path):
    path = tmp_path / "m.json"
    save_model(single_path_model([0.0, 1.0], 1.0), path)
    monkeypatch.setenv("DUALITYLAB_MAX_NODES", "1")
    assert main(["validate", "--model", str(path)]) == 2
