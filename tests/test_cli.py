import json

import numpy as np
import pytest

from distsynth import Box, BoxHullSet, RpiParams, sample
from distsynth.cli import (
    Options,
    ProblemSpec,
    ResultDoc,
    cmd_gen,
    cmd_params,
    cmd_reduce,
    cmd_synth,
    cmd_verify,
    main,
    parse_spec,
    reachable_outline,
)
from distsynth.setgeom import support_argmax_hull

PENTAGON_SPEC = {
    "system": {
        "A": [[-0.5844, -0.2378, -0.2015], [-0.2378, 0.0368, 0.6915], [-0.2015, 0.6915, -0.0162]],
        "B": [[0.0, 0.8974], [0.0, -1.8597], [0.8903, 0.9479]],
        "C": [[0.0, 2.0091, -0.1402], [-0.9894, 0.0, 1.1447]],
        "D": [[-0.8078, 0.0], [0.9676, 0.6751]],
    },
    "constraints": {
        "G": [
            [-0.4489, 2.1848],
            [-1.9691, 1.2596],
            [1.0364, 0.8726],
            [1.4018, -0.3397],
            [-0.9868, -2.0995],
        ],
        "g": [1.0, 1.0, 1.0, 1.0, 1.0],
    },
    "options": {"mu": 1e-3, "gamma": 0.2, "N": 4, "l": 59, "H": "uniform:6", "seed": 0},
}

PARTITIONED_SPEC = {
    "system": {
        "A11": [[1.0, 1.0], [0.0, 1.0]],
        "A12": [[-0.0524, -0.3299, 0.3061, 0.2773], [-0.0048, -0.1020, 0.1244, -0.1044]],
        "A21": [[0.0, 0.0204], [0.0, 0.0344], [0.0, -0.0339], [0.0, 0.0134]],
        "A22": [
            [-0.0790, 0.2854, -0.0377, 0.6949],
            [0.2854, -0.2284, 0.2752, 0.3536],
            [-0.0377, 0.2752, 0.6021, -0.2824],
            [0.6949, 0.3536, -0.2824, -0.0129],
        ],
        "B1": [[0.5], [1.0]],
        "C1": [[0.9407, -0.3282], [-0.6624, -0.7257]],
        "C2": [[0.8716, 0.3587, 0.2407, 0.5116], [-0.1863, 0.1624, 0.7122, 1.7494]],
    },
    "constraints": {
        "G": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        "g": [1.0, 1.0, 1.0, 1.0],
    },
    "options": {"mu": 1e-3, "gamma": 0.1, "N": 3, "H": "box", "seed": 0},
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def small_spec_doc():
    spec = cmd_gen(2, 2, 2, 0.5, seed=11)
    doc = spec.to_dict()
    doc["options"].update({"N": 2, "l": 4, "zeta": 1e-4, "max_iters": 40})
    return doc


class TestParseSpec:
    def test_roundtrip(self):
        spec = parse_spec(PENTAGON_SPEC)
        assert spec.sys.n_x == 3 and spec.sys.n_w == 2 and spec.sys.n_y == 2
        assert spec.options.n_boxes == 4
        again = parse_spec(spec.to_dict())
        assert np.array_equal(again.sys.A, spec.sys.A)

    def test_missing_section(self):
        from distsynth.cli import SpecError

        with pytest.raises(SpecError):
            parse_spec({"system": PENTAGON_SPEC["system"]})

    def test_unstable_rejected(self):
        from distsynth.cli import AssumptionError

        doc = json.loads(json.dumps(PENTAGON_SPEC))
        doc["system"]["A"] = [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]
        with pytest.raises(AssumptionError):
            parse_spec(doc)

    def test_zero_offset_rejected(self):
        from distsynth.cli import AssumptionError

        doc = json.loads(json.dumps(PENTAGON_SPEC))
        doc["constraints"]["g"] = [1.0, 1.0, 0.0, 1.0, 1.0]
        with pytest.raises(AssumptionError):
            parse_spec(doc)

    def test_dimension_mismatch_rejected(self):
        from distsynth.cli import SpecError

        doc = json.loads(json.dumps(PENTAGON_SPEC))
        doc["constraints"]["G"] = [[1.0, 0.0, 0.0]]
        doc["constraints"]["g"] = [1.0]
        with pytest.raises(SpecError):
            parse_spec(doc)

    def test_unknown_option_rejected(self):
        from distsynth.cli import SpecError

        doc = json.loads(json.dumps(PENTAGON_SPEC))
        doc["options"]["banana"] = 1
        with pytest.raises(SpecError):
            parse_spec(doc)


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["params", str(bad)]) == 2

    def test_missing_file_is_2(self):
        assert main(["params", "/nonexistent/spec.json"]) == 2

    def test_unstable_is_3(self, tmp_path):
        doc = json.loads(json.dumps(PENTAGON_SPEC))
        doc["system"]["A"] = [[1.2, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        assert main(["params", write_json(tmp_path / "s.json", doc)]) == 3

    def test_budget_exhaustion_is_3(self, tmp_path):
        path = write_json(tmp_path / "s.json", PENTAGON_SPEC)
        assert main(["params", path, "--s-max", "5"]) == 3

    def test_params_success_is_0(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", PENTAGON_SPEC)
        assert main(["params", path, "--out", str(tmp_path / "p.json")]) == 0
        frag = json.loads((tmp_path / "p.json").read_text())
        assert frag["params"]["s"] == 60

    def test_failed_synthesis_lp_is_written_and_exit_is_4(self, tmp_path, monkeypatch, capsys, small_spec_doc):
        from distsynth import synthesizer
        from distsynth.lp_solver import FAILED, LpOutcome

        def failing(lp, basis=None):
            return LpOutcome(FAILED, None, None, None, None, None, None, "forced failure")

        monkeypatch.setattr(synthesizer, "solve_lp", failing)
        spec_path = write_json(tmp_path / "spec.json", small_spec_doc)
        out_dir = tmp_path / "out"
        assert main(["synth", spec_path, "--out", str(out_dir)]) == 4
        dump = out_dir / "failed_lp.lp"
        assert dump.read_text().startswith("Minimize")
        assert str(dump) in capsys.readouterr().err
        assert not (out_dir / "result.json").exists()


class TestCmdParams:
    def test_reports_margins(self):
        frag = cmd_params(parse_spec(PENTAGON_SPEC))
        assert frag["params"]["s"] == 60
        assert all(m["passed"] for m in frag["margins"].values())


class TestSynthVerifyRoundtrip:
    def test_pipeline_and_stored_result(self, tmp_path, small_spec_doc):
        spec_path = write_json(tmp_path / "spec.json", small_spec_doc)
        out_dir = tmp_path / "out"
        assert main(["synth", spec_path, "--out", str(out_dir)]) == 0
        result_path = out_dir / "result.json"
        assert result_path.exists()
        assert main(["verify", spec_path, str(result_path)]) == 0

    def test_result_doc_roundtrip(self, small_spec_doc):
        doc = cmd_synth(parse_spec(small_spec_doc))
        dumped = doc.to_dict()
        again = ResultDoc.from_dict(json.loads(json.dumps(dumped)))
        assert again.to_dict() == dumped

    def test_tampered_widths_fail_verification(self, tmp_path, small_spec_doc):
        spec = parse_spec(small_spec_doc)
        doc = cmd_synth(spec)
        tampered = doc.to_dict()
        for box in tampered["W"]["boxes"]:
            box["halfwidth"] = [10.0 * h + 1.0 for h in box["halfwidth"]]
        spec_path = write_json(tmp_path / "spec.json", small_spec_doc)
        result_path = write_json(tmp_path / "tampered.json", tampered)
        assert main(["verify", spec_path, result_path]) == 3

    def test_tampered_alpha_fails_verification(self, small_spec_doc):
        spec = parse_spec(small_spec_doc)
        doc = cmd_synth(spec)
        bad = json.loads(json.dumps(doc.to_dict()))
        bad["params"]["alpha"] = bad["params"]["alpha"] / 50.0
        cert = cmd_verify(spec, ResultDoc.from_dict(bad))
        assert not cert.passed
        failing = {c.name for c in cert.checks if not c.passed}
        assert "contraction" in failing

    def test_certificates_embedded(self, small_spec_doc):
        doc = cmd_synth(parse_spec(small_spec_doc))
        assert any(k.startswith("vertex-") for k in doc.certificates)
        assert all(c["passed"] for c in doc.certificates.values())


class TestCmdReduce:
    def test_mapping(self):
        spec = cmd_reduce(PARTITIONED_SPEC)
        assert np.allclose(spec.sys.A, PARTITIONED_SPEC["system"]["A22"])
        assert np.allclose(spec.sys.B, PARTITIONED_SPEC["system"]["A21"])
        assert np.allclose(spec.sys.C, PARTITIONED_SPEC["system"]["C2"])
        assert np.allclose(spec.sys.D, PARTITIONED_SPEC["system"]["C1"])

    def test_zero_coupling_maps_to_zero_input(self):
        doc = json.loads(json.dumps(PARTITIONED_SPEC))
        doc["system"]["A21"] = [[0.0, 0.0]] * 4
        spec = cmd_reduce(doc)
        assert np.allclose(spec.sys.B, 0.0)

    def test_mapped_params_horizon(self):
        spec = cmd_reduce(PARTITIONED_SPEC)
        frag = cmd_params(spec)
        assert frag["params"]["s"] == 151

    def test_unstable_hidden_block_rejected(self):
        from distsynth.cli import AssumptionError

        doc = json.loads(json.dumps(PARTITIONED_SPEC))
        doc["system"]["A22"] = (1.5 * np.eye(4)).tolist()
        with pytest.raises(AssumptionError):
            cmd_reduce(doc)

    def test_joint_simulation_respects_constraints(self):
        """Synthesized substate set keeps the partitioned plant's output in
        its constraints when the accessible substate stays in the set."""
        doc = json.loads(json.dumps(PARTITIONED_SPEC))
        doc["options"].update({"N": 2, "l": 20, "max_iters": 25})
        spec = cmd_reduce(doc)
        result = cmd_synth(spec)
        A22 = np.array(PARTITIONED_SPEC["system"]["A22"])
        A21 = np.array(PARTITIONED_SPEC["system"]["A21"])
        C1 = np.array(PARTITIONED_SPEC["system"]["C1"])
        C2 = np.array(PARTITIONED_SPEC["system"]["C2"])
        G = np.array(PARTITIONED_SPEC["constraints"]["G"])
        g = np.array(PARTITIONED_SPEC["constraints"]["g"])
        rng = np.random.default_rng(3)
        x2 = np.zeros(4)
        for _ in range(20_000):
            x1 = sample(result.W, rng)
            y = C1 @ x1 + C2 @ x2
            assert np.all(G @ y <= g + 1e-8)
            x2 = A22 @ x2 + A21 @ x1


class TestCmdGen:
    def test_deterministic(self):
        a = cmd_gen(3, 2, 2, 0.7, seed=5).to_dict()
        b = cmd_gen(3, 2, 2, 0.7, seed=5).to_dict()
        assert a == b

    def test_spectral_radius_hits_target(self):
        spec = cmd_gen(4, 2, 2, 0.7, seed=1)
        rho = np.max(np.abs(np.linalg.eigvals(spec.sys.A)))
        assert rho == pytest.approx(0.7, abs=1e-10)

    def test_unit_box_constraints(self):
        spec = cmd_gen(3, 2, 2, 0.7, seed=2)
        assert np.allclose(spec.Y.g, 1.0)
        assert spec.Y.n_rows == 4

    def test_rejects_bad_target(self):
        from distsynth.cli import SpecError

        with pytest.raises(SpecError):
            cmd_gen(3, 2, 2, 1.1, seed=0)

    def test_params_terminate_on_batch(self):
        for seed in range(10):
            spec = cmd_gen(3, 2, 2, 0.7, seed=seed)
            frag = cmd_params(spec)
            assert frag["params"]["s"] >= 1


class TestCmdPlot:
    def test_unit_box_outline_file(self, tmp_path, small_spec_doc):
        spec = parse_spec(small_spec_doc)
        doc = cmd_synth(spec)
        boxed = ResultDoc(
            params=doc.params,
            W=BoxHullSet((Box([0.0, 0.0], [1.0, 1.0]),)),
            epsilon=doc.epsilon,
            objective=doc.objective,
            horizon=doc.horizon,
            H=doc.H,
            certificates=doc.certificates,
            history=doc.history,
            iterations=doc.iterations,
            termination=doc.termination,
        )
        from distsynth.cli import cmd_plot

        files = cmd_plot(boxed, spec, tmp_path / "plots")
        names = {f.name for f in files}
        assert {"w_set.csv", "y_set.csv", "reach_set.csv", "trajectory.csv"} <= names
        w_lines = (tmp_path / "plots" / "w_set.csv").read_text().strip().splitlines()
        assert len(w_lines) == 4

    def test_reach_points_respect_constraints_and_cover_trajectory(
        self, tmp_path, small_spec_doc
    ):
        from distsynth.cli import cmd_plot

        spec = parse_spec(small_spec_doc)
        doc = cmd_synth(spec)
        cmd_plot(doc, spec, tmp_path / "plots")
        reach = np.loadtxt(tmp_path / "plots" / "reach_set.csv", delimiter=",")
        assert np.all(reach @ spec.Y.G.T <= spec.Y.g + 1e-9)
        traj = np.loadtxt(tmp_path / "plots" / "trajectory.csv", delimiter=",")
        # inscribed-polygon containment up to the chord sag of the 1-degree fan
        scale = np.abs(reach).max()
        for k in range(len(reach)):
            a, b = reach[k], reach[(k + 1) % len(reach)]
            edge = b - a
            cross = edge[0] * (traj[:, 1] - a[1]) - edge[1] * (traj[:, 0] - a[0])
            assert np.all(cross >= -1e-3 * scale)

    def test_outline_matches_per_direction_support_points(self):
        spec = parse_spec(PENTAGON_SPEC)
        sys = spec.sys
        params = RpiParams(s=60, alpha=6.781843723995092e-4, lam=6.796195472333852e-5, gamma=0.2, mu=1e-3)
        rng = np.random.default_rng(40)
        W = BoxHullSet(tuple(Box(rng.uniform(-0.05, 0.05, 2), rng.uniform(0.0, 0.03, 2)) for _ in range(4)))
        n_dirs = 48
        ang = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
        P = np.column_stack([np.cos(ang), np.sin(ang)])
        I = np.eye(sys.n_w)
        ref = np.zeros((n_dirs, 2))
        CA = sys.C.copy()
        for _ in range(params.s):
            Q = P @ CA
            for d in range(n_dirs):
                w_star = support_argmax_hull(I, Q[d] @ sys.B, W)
                ref[d] += CA @ (sys.B @ w_star + params.lam * np.sign(Q[d])) / (1.0 - params.alpha)
            CA = CA @ sys.A
        for d in range(n_dirs):
            ref[d] += sys.D @ support_argmax_hull(I, P[d] @ sys.D, W)
        assert np.max(np.abs(reachable_outline(sys, params, W, n_dirs) - ref)) <= 1e-12

    def test_cli_plot_roundtrip(self, tmp_path, small_spec_doc):
        spec_path = write_json(tmp_path / "spec.json", small_spec_doc)
        out_dir = tmp_path / "out"
        assert main(["synth", spec_path, "--out", str(out_dir)]) == 0
        assert main(["plot", spec_path, str(out_dir / "result.json"), "--out", str(tmp_path / "p")]) == 0
        assert (tmp_path / "p" / "reach_set.csv").exists()


class TestTinyConstraints:
    def test_scaled_down_constraints_give_small_certified_set(self, small_spec_doc):
        doc = json.loads(json.dumps(small_spec_doc))
        doc["constraints"]["g"] = [1e-3 * v for v in doc["constraints"]["g"]]
        doc["constraints"].pop("vertices", None)
        result = cmd_synth(parse_spec(doc))
        assert all(c["passed"] for c in result.certificates.values())
        widest = max(float(np.max(np.abs(b.center) + b.halfwidth)) for b in result.W.boxes)
        assert widest <= 1e-2


class TestHRows:
    def test_explicit_rows_override_preset(self, small_spec_doc):
        doc = json.loads(json.dumps(small_spec_doc))
        rows = [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]
        doc["options"]["H"] = rows
        spec = parse_spec(doc)
        assert np.allclose(spec.resolve_h(), rows)
        result = cmd_synth(spec)
        assert result.epsilon.shape == (3,)


class TestOptionOverrides:
    def test_flag_overrides_apply(self, tmp_path):
        path = write_json(tmp_path / "s.json", PENTAGON_SPEC)
        out = tmp_path / "p.json"
        assert main(["params", path, "--mu", "0.01", "--gamma", "1.0", "--out", str(out)]) == 0
        frag = json.loads(out.read_text())
        assert frag["params"]["mu"] == 0.01
        assert frag["params"]["s"] < 60

    def test_options_from_dict_defaults(self):
        opts = Options.from_dict({})
        assert opts.n_boxes == 4 and opts.horizon is None
