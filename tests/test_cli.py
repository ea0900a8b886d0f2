import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from distsynth import BoxHullSet, RpiParams, lp_solver, rpi_params, verifier, vertices_hpoly
from distsynth.cli import (
    Options,
    ProblemSpec,
    ResultDoc,
    _dump_json,
    _to_jsonable,
    cmd_gen,
    cmd_params,
    cmd_reduce,
    cmd_synth,
    cmd_verify,
    main,
    parse_spec,
    reachable_outline,
)
from distsynth.setgeom import sample_batch, support_corners

from conftest import hull_of
from reference import inflation_margins

ROOT = Path(__file__).resolve().parents[1]

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
    doc["options"].update({"N": 2, "l": 4})
    return doc


@pytest.fixture(scope="module")
def long_spec_doc(small_spec_doc):
    """The small problem at a coverage horizon long enough to have a short one."""
    doc = json.loads(json.dumps(small_spec_doc))
    doc["options"]["l"] = 20
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


def _set_option(key, val):
    return lambda d: d["options"].update({key: val})


# one malformed field each; every edit of PENTAGON_SPEC must exit 2 before any LP runs
MALFORMED = {
    "A-not-square": lambda d: d["system"].update(A=d["system"]["A"][:2]),
    "A-nan": lambda d: d["system"]["A"][0].__setitem__(0, float("nan")),
    "no-inputs": lambda d: d["system"].update(B=[[]] * 3, D=[[]] * 2),
    "g-nan": lambda d: d["constraints"]["g"].__setitem__(0, float("nan")),
    "ragged-vertices": lambda d: d["constraints"].update(vertices=[[0.0, 0.0], [0.1]]),
    "vertex-outside-Y": lambda d: d["constraints"].update(vertices=[[5.0, 5.0], [-5.0, 5.0], [0.0, -5.0]]),
    "N-zero": _set_option("N", 0),
    "l-zero": _set_option("l", 0),
    "H-unknown-preset": _set_option("H", "hexagon"),
    "H-three-columns": _set_option("H", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 0.0]]),
    "N-string": _set_option("N", "four"),
    "seed-string": _set_option("seed", "x"),
    "mu-negative": _set_option("mu", -1),
    "gamma-zero": _set_option("gamma", 0),
    # the alternation's stopping rule and the search's horizon budget are no
    # options: listing any of these keys is an unknown option
    "zeta-zero": _set_option("zeta", 0),
    "max_iters-zero": _set_option("max_iters", 0),
    "s_max-zero": _set_option("s_max", 0),
    "restarts-negative": _set_option("restarts", -1),
}


@pytest.mark.parametrize("command", ["params", "synth", "reduce"])
@pytest.mark.parametrize("section", ["system", "constraints", "options"])
@pytest.mark.parametrize("value", [5, [1, 2], None, "box"], ids=["number", "list", "null", "string"])
def test_section_that_is_not_an_object_is_2(tmp_path, capsys, command, section, value):
    doc = json.loads(json.dumps(PARTITIONED_SPEC if command == "reduce" else PENTAGON_SPEC))
    doc[section] = value
    assert main([command, write_json(tmp_path / "s.json", doc), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: section {section!r} must be a JSON object")


class TestMalformedSpec:
    @pytest.mark.parametrize("field", sorted(MALFORMED))
    def test_synth_exits_2(self, tmp_path, field, capsys):
        doc = json.loads(json.dumps(PENTAGON_SPEC))
        MALFORMED[field](doc)
        assert main(["synth", write_json(tmp_path / "spec.json", doc), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize("key, val", [("zeta", 1e-4), ("max_iters", 100)])
    def test_stopping_rule_is_an_unknown_option(self, tmp_path, key, val, capsys):
        doc = json.loads(json.dumps(PENTAGON_SPEC))
        doc["options"][key] = val
        assert main(["synth", write_json(tmp_path / "spec.json", doc), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: unknown option {key!r}\n"
        assert not (tmp_path / "result.json").exists()
        with pytest.raises(SystemExit) as exc:
            main(["synth", str(tmp_path / "spec.json"), "--" + key.replace("_", "-"), str(val)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_malformed_flag_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "spec.json", PENTAGON_SPEC)
        assert main(["synth", path, "--restarts", "-1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: option restarts must be an integer >= 0")


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["params", str(bad)]) == 2

    def test_missing_file_is_2(self):
        assert main(["params", "/nonexistent/spec.json"]) == 2

    @pytest.mark.parametrize("command", ["params", "synth", "verify", "reduce"])
    @pytest.mark.parametrize("unreadable", ["directory", "not-utf8"])
    def test_unreadable_input_is_2(self, tmp_path, capsys, command, unreadable):
        bad = tmp_path / "bad.json"
        if unreadable == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b'{"system": "\xff\xfe"}')
        if command == "verify":  # a readable spec and the unreadable result
            argv = [command, write_json(tmp_path / "spec.json", PENTAGON_SPEC), str(bad)]
        else:
            argv = [command, str(bad), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["params", "synth", "gen", "plot"])
    def test_unusable_out_is_2(self, tmp_path, capsys, command, small_spec_doc, small_result_doc):
        afile = tmp_path / "afile.toml"
        afile.write_text("")
        spec_path = write_json(tmp_path / "spec.json", small_spec_doc)
        argv = {
            "params": ["params", spec_path, "--out", str(afile / "p.json")],
            "synth": ["synth", spec_path, "--out", str(afile / "x")],
            "gen": ["gen", "--nx", "2", "--nw", "1", "--ny", "1", "--rho", "0.5", "--out", str(afile / "s.json")],
            "plot": ["plot", spec_path, write_json(tmp_path / "result.json", small_result_doc), "--out", str(afile)],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {afile}")
        assert afile.read_text() == ""

    @pytest.mark.parametrize("command", ["params", "synth"])
    def test_unusable_out_fails_before_any_work(self, tmp_path, monkeypatch, capsys, command, small_spec_doc):
        from distsynth import cli

        def never(spec):
            raise AssertionError(f"cmd_{command} ran")

        monkeypatch.setattr(cli, f"cmd_{command}", never)
        afile = tmp_path / "afile.toml"
        afile.write_text("")
        assert main([command, write_json(tmp_path / "spec.json", small_spec_doc), "--out", str(afile / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {afile / 'x'}")

    def test_failed_lp_that_cannot_be_written_still_exits_4(self, tmp_path, monkeypatch, capsys, small_spec_doc):
        from distsynth import synthesizer
        from distsynth.lp_solver import FAILED, LpOutcome

        monkeypatch.setattr(synthesizer, "solve_lp", lambda lp, **kwargs: LpOutcome(FAILED))
        blocked = tmp_path / "out" / "failed_lp.lp"
        blocked.mkdir(parents=True)  # the --out directory is usable, the dump's path is not
        assert main(["synth", write_json(tmp_path / "spec.json", small_spec_doc), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: iteration 1: box-fitting LP ended with status failed")
        assert f"error: cannot write the failing LP to {blocked}: " in err

    def test_unstable_is_3(self, tmp_path):
        doc = json.loads(json.dumps(PENTAGON_SPEC))
        doc["system"]["A"] = [[1.2, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        assert main(["params", write_json(tmp_path / "s.json", doc)]) == 3

    def test_budget_exhaustion_is_3(self, tmp_path, monkeypatch):
        # the pentagon's search needs s = 60; a budget of 5 horizons runs out
        monkeypatch.setattr(rpi_params, "S_MAX", 5)
        path = write_json(tmp_path / "s.json", PENTAGON_SPEC)
        assert main(["params", path]) == 3

    def test_params_success_is_0(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", PENTAGON_SPEC)
        assert main(["params", path, "--out", str(tmp_path / "p.json")]) == 0
        frag = json.loads((tmp_path / "p.json").read_text())
        assert frag["params"]["s"] == 60

    def test_failed_synthesis_lp_is_written_and_exit_is_4(self, tmp_path, monkeypatch, capsys, small_spec_doc):
        from distsynth import synthesizer
        from distsynth.lp_solver import FAILED, LpOutcome

        def failing(lp, **kwargs):
            return LpOutcome(FAILED)

        monkeypatch.setattr(synthesizer, "solve_lp", failing)
        spec_path = write_json(tmp_path / "spec.json", small_spec_doc)
        out_dir = tmp_path / "out"
        assert main(["synth", spec_path, "--out", str(out_dir)]) == 4
        dump = out_dir / "failed_lp.lp"
        assert dump.read_text().startswith("Minimize")
        assert str(dump) in capsys.readouterr().err
        assert not (out_dir / "result.json").exists()

    def test_unbounded_constraint_set_is_3(self, tmp_path, capsys):
        # y1 <= 1, y2 <= 1, y1 + y2 <= 1.5 has two vertices and the ray -(1, 1)
        doc = json.loads(json.dumps(PENTAGON_SPEC))
        doc["constraints"] = {"G": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "g": [1.0, 1.0, 1.5]}
        out_dir = tmp_path / "out"
        assert main(["synth", write_json(tmp_path / "s.json", doc), "--out", str(out_dir)]) == 3
        assert "unbounded" in capsys.readouterr().err
        assert not (out_dir / "failed_lp.lp").exists() and not (out_dir / "result.json").exists()

    def test_params_takes_no_seed_flag(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", PENTAGON_SPEC)
        with pytest.raises(SystemExit) as exc:
            main(["params", path, "--seed", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    def test_failed_distance_lp_is_written_and_exit_is_4(self, tmp_path, monkeypatch, capsys, small_spec_doc):
        from distsynth import verifier
        from distsynth.lp_solver import FAILED, LpOutcome

        def failing(lp, **kwargs):
            return LpOutcome(FAILED)

        # synthesis solves as usual; the exact distance at l is the first verifier LP
        monkeypatch.setattr(verifier, "solve_lp", failing)
        spec_path = write_json(tmp_path / "spec.json", small_spec_doc)
        out_dir = tmp_path / "out"
        assert main(["synth", spec_path, "--out", str(out_dir)]) == 4
        dump = out_dir / "failed_lp.lp"
        assert dump.read_text().startswith("Minimize")
        err = capsys.readouterr().err
        assert "error: coverage LP ended with status failed" in err and str(dump) in err
        assert not (out_dir / "result.json").exists()

    def test_failed_coverage_lp_of_verify_is_written_and_exit_is_4(
        self, tmp_path, monkeypatch, capsys, small_spec_doc, small_result_doc
    ):
        from distsynth import verifier
        from distsynth.lp_solver import FAILED, LpOutcome

        def failing(lp, **kwargs):
            return LpOutcome(FAILED)

        # a document without a witness, so verify solves the coverage LP
        older = {key: val for key, val in small_result_doc.items() if key != "witness"}
        spec_path = write_json(tmp_path / "spec.json", small_spec_doc)
        result_path = write_json(tmp_path / "result.json", older)
        monkeypatch.setattr(verifier, "solve_lp", failing)
        monkeypatch.chdir(tmp_path)  # verify has no --out: the program goes to the current directory
        assert main(["verify", spec_path, result_path]) == 4
        assert (tmp_path / "failed_lp.lp").read_text().startswith("Minimize")
        assert "error: coverage LP ended with status failed" in capsys.readouterr().err


class TestRepeatedVertex:
    def test_a_vertex_listed_twice_is_one_vertex(self, tmp_path, capsys):
        vertices = vertices_hpoly(parse_spec(PENTAGON_SPEC).Y).tolist()
        runs = {}
        for name, listed in (("once", vertices), ("twice", vertices + [vertices[2]])):
            doc = json.loads(json.dumps(PENTAGON_SPEC))
            doc["constraints"]["vertices"] = listed
            doc["options"]["l"] = 20
            spec_path = write_json(tmp_path / f"{name}.json", doc)
            result_path = tmp_path / name / "result.json"
            assert main(["synth", spec_path, "--out", str(tmp_path / name)]) == 0
            result = json.loads(result_path.read_text())
            capsys.readouterr()
            assert main(["verify", spec_path, str(result_path)]) == 0
            checked = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
            runs[name] = (list(result["certificates"]), checked, result["objective"])
        assert "[pass] vertex-4" in runs["once"][1]
        assert runs["twice"] == runs["once"]


class TestCmdParams:
    def test_reports_margins(self):
        frag = cmd_params(parse_spec(PENTAGON_SPEC))
        assert frag["params"]["s"] == 60
        assert all(m["passed"] for m in frag["margins"].values())


class TestNoSparseConstructorChain:
    """Every LP matrix of synth and verify is built from index triplets and
    held as the package's own arrays: with scipy.sparse's constructors and
    ``issparse`` made to raise, ``cmd_synth`` and ``cmd_verify`` (from the
    witness and, without it, by the coverage LP) still run on the
    illustrative spec and every certificate passes, and no module of the
    package holds scipy.sparse or anything from it."""

    def test_synth_and_verify_use_no_sparse_constructor(self, monkeypatch):
        import scipy.sparse

        def forbidden(*args, **kwargs):
            raise AssertionError("a scipy.sparse constructor is on the LP build path")

        names = ("kron", "bmat", "hstack", "vstack", "eye", "coo_matrix", "csr_matrix", "csr_array", "issparse")
        for name in names:
            monkeypatch.setattr(scipy.sparse, name, forbidden)
        spec = parse_spec(json.loads((ROOT / "specs" / "illustrative.json").read_text()))
        stored = json.loads(json.dumps(cmd_synth(spec).to_dict()))
        assert cmd_verify(spec, ResultDoc.from_dict(stored)).passed
        del stored["witness"]
        assert cmd_verify(spec, ResultDoc.from_dict(stored)).passed

    def test_no_module_holds_scipy_sparse(self):
        import scipy.sparse

        for module in [m for name, m in sys.modules.items() if name == "distsynth" or name.startswith("distsynth.")]:
            for name, value in vars(module).items():
                origin = value.__name__ if isinstance(value, types.ModuleType) else getattr(value, "__module__", None)
                assert value is not scipy.sparse and not str(origin).startswith("scipy.sparse"), (module.__name__, name)


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

    def test_result_records_the_short_horizon(self, small_spec_doc):
        doc = cmd_synth(parse_spec(small_spec_doc))
        dumped = json.loads(json.dumps(doc.to_dict()))
        assert dumped["l0"] == doc.l0 <= dumped["l"]
        assert ResultDoc.from_dict(dumped).to_dict() == dumped
        # documents written before the field existed alternated at l
        del dumped["l0"]
        older = ResultDoc.from_dict(dumped)
        assert older.l0 == older.horizon == doc.horizon
        assert older.to_dict()["l0"] == doc.horizon

    def test_result_records_the_budget_tail(self, small_spec_doc):
        doc = cmd_synth(parse_spec(small_spec_doc))
        dumped = json.loads(json.dumps(doc.to_dict()))
        assert dumped["t0"] == doc.t0 and 1 <= doc.t0 <= dumped["params"]["s"]
        assert ResultDoc.from_dict(dumped).to_dict() == dumped
        # documents written before the field existed kept every term
        del dumped["t0"]
        older = ResultDoc.from_dict(dumped)
        assert older.t0 == older.params.s == doc.params.s

    def test_written_result_has_a_row_per_line_and_round_trips(self, tmp_path, small_spec_doc):
        doc = cmd_synth(parse_spec(small_spec_doc))
        path = tmp_path / "result.json"
        _dump_json(doc.to_dict(), str(path))
        text = path.read_text()
        # no number stands alone on its line: every vector or matrix row is one line
        assert not any(line.strip().rstrip(",").lstrip("-")[:1].isdigit() for line in text.splitlines())
        assert ResultDoc.from_dict(json.loads(text)).to_dict() == _to_jsonable(doc.to_dict())

    def test_written_bytes_are_those_of_a_walk_value_by_value(self, tmp_path, small_spec_doc):
        def walk(obj):
            if isinstance(obj, dict):
                return {k: walk(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [walk(v) for v in obj]
            if isinstance(obj, np.ndarray):
                return walk(obj.tolist())
            if isinstance(obj, (np.floating, np.integer, np.bool_)):
                return obj.item()
            return obj

        stored = cmd_synth(parse_spec(small_spec_doc)).to_dict()
        # numpy values anywhere, and plain ones that compare equal across types
        mixed = {
            "result": stored, "array": np.arange(6.0).reshape(2, 3), "ints": np.arange(3), "scalars":
            [np.float64(0.1), np.int64(2), np.bool_(True), np.float32(0.5)], "plain": (1, 1.0, True, None, "a"),
            "nested": [[np.float64(1.5), 2], (3.0, [np.int32(4)])],
        }
        for doc in (stored, mixed):
            written, expected = tmp_path / "written.json", tmp_path / "expected.json"
            _dump_json(doc, str(written))
            _dump_json(walk(doc), str(expected))
            assert written.read_bytes() == expected.read_bytes()
            assert json.dumps(_to_jsonable(doc)) == json.dumps(walk(doc))

    def test_objective_is_the_exact_distance_at_l(self, long_spec_doc):
        from distsynth import verifier

        spec = parse_spec(long_spec_doc)
        doc = cmd_synth(spec)
        assert doc.l0 < doc.horizon == long_spec_doc["options"]["l"]
        epsilon, distance = verifier.distance_dY(spec.sys, spec.resolve_vertices(), doc.W, doc.horizon, doc.H)
        assert doc.objective == distance and np.array_equal(doc.epsilon, epsilon)
        # history is at l0, whose reachable outputs are a subset of those at l
        assert doc.history[-1] >= doc.objective - 1e-9
        assert abs(doc.objective - doc.epsilon.sum()) <= 1e-9 * max(1.0, doc.objective)
        assert all(c["passed"] for c in doc.certificates.values())

    def test_result_records_p_step_iterations(self, small_spec_doc):
        doc = cmd_synth(parse_spec(small_spec_doc))
        dumped = doc.to_dict()
        assert len(dumped["p_nit"]) == doc.iterations
        assert all(isinstance(n, int) and n >= 0 for n in dumped["p_nit"])
        # documents written before the field existed still load
        del dumped["p_nit"]
        older = ResultDoc.from_dict(json.loads(json.dumps(dumped)))
        assert older.p_nit == [] and older.objective == doc.objective

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

    def test_verify_recomputes_the_stored_certificates(self, small_spec_doc):
        spec = parse_spec(small_spec_doc)
        doc = cmd_synth(spec)
        stored = ResultDoc.from_dict(json.loads(json.dumps(doc.to_dict())))
        assert cmd_verify(spec, stored).as_dict() == doc.certificates


@pytest.fixture(scope="module")
def small_result_doc(small_spec_doc):
    return json.loads(json.dumps(cmd_synth(parse_spec(small_spec_doc)).to_dict()))


# result documents that do not fit the problem they are verified against
MISFITS = {
    "epsilon-shorter-than-H": lambda d: d.update(epsilon=d["epsilon"][:-1]),
    "epsilon-longer-than-H": lambda d: d.update(epsilon=d["epsilon"] + [0.0]),
    "H-column-per-output": lambda d: d.update(H=[row + [0.0] for row in d["H"]]),
    "negative-horizon": lambda d: d.update(l=-3),
    "zero-horizon": lambda d: d.update(l=0),
    "l0-above-l": lambda d: d.update(l0=d["l"] + 1),
    "zero-l0": lambda d: d.update(l0=0),
    "t0-above-s": lambda d: d.update(t0=d["params"]["s"] + 1),
    "zero-t0": lambda d: d.update(t0=0),
    "box-dimension": lambda d: [
        b.update(center=b["center"] + [0.0], halfwidth=b["halfwidth"] + [0.0]) for b in d["W"]["boxes"]
    ],
    "witness-vertex-count": lambda d: d["witness"].update(
        weights=d["witness"]["weights"][:-1], points=d["witness"]["points"][:-1]
    ),
    "witness-slots": lambda d: d["witness"].update(
        weights=[v[:-1] for v in d["witness"]["weights"]], points=[v[:-1] for v in d["witness"]["points"]]
    ),
    "witness-boxes": lambda d: d["witness"].update(weights=[[g + [0.0] for g in v] for v in d["witness"]["weights"]]),
    "witness-inputs": lambda d: d["witness"].update(points=[[g + [0.0] for g in v] for v in d["witness"]["points"]]),
}


# result documents with a number that is not finite
NON_FINITE = {
    "H-nan": lambda d: d["H"][0].__setitem__(0, float("nan")),
    "epsilon-nan": lambda d: d["epsilon"].__setitem__(0, float("nan")),
    "objective-nan": lambda d: d.update(objective=float("nan")),
    "center-nan": lambda d: d["W"]["boxes"][0]["center"].__setitem__(0, float("nan")),
    "halfwidth-inf": lambda d: d["W"]["boxes"][0]["halfwidth"].__setitem__(0, float("inf")),
    "gamma-nan": lambda d: d["params"].update(gamma=float("nan")),
    "mu-inf": lambda d: d["params"].update(mu=float("inf")),
    "witness-weight-nan": lambda d: d["witness"]["weights"][0][0].__setitem__(0, float("nan")),
    "witness-point-inf": lambda d: d["witness"]["points"][-1][-1].__setitem__(0, float("-inf")),
}


@pytest.mark.parametrize("edit", sorted(NON_FINITE))
def test_non_finite_result_is_2(tmp_path, small_spec_doc, small_result_doc, edit, capsys):
    bad = json.loads(json.dumps(small_result_doc))
    NON_FINITE[edit](bad)
    spec_path = write_json(tmp_path / "spec.json", small_spec_doc)
    result_path = write_json(tmp_path / "result.json", bad)
    assert main(["verify", spec_path, result_path]) == 2
    assert main(["plot", spec_path, result_path, "--out", str(tmp_path / "p")]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


# edits of the stored illustrative result that put a non-integer where a
# count belongs; int() used to truncate 60.5 to 60 and read true as 1
NON_INTEGER = {
    "s-fraction": lambda d: d["params"].update(s=60.5),
    "s-true": lambda d: d["params"].update(s=True),
    "s-string": lambda d: d["params"].update(s="60"),
    "l-fraction": lambda d: d.update(l=58.9),
    "l-false": lambda d: d.update(l=False),
    "iterations-fraction": lambda d: d.update(iterations=10.5),
    "p_nit-fraction": lambda d: d.update(p_nit=[3.5]),
    "l0-fraction": lambda d: d.update(l0=12.5),
    "t0-fraction": lambda d: d.update(t0=26.5),
}


@pytest.mark.parametrize("edit", sorted(NON_INTEGER))
def test_non_integer_result_is_2(tmp_path, edit, capsys):
    bad = json.loads((ROOT / "perfbench" / "data" / "illustrative_result.json").read_text())
    NON_INTEGER[edit](bad)
    spec_path = str(ROOT / "specs" / "illustrative.json")
    result_path = write_json(tmp_path / "result.json", bad)
    assert main(["verify", spec_path, result_path]) == 2
    assert main(["plot", spec_path, result_path, "--out", str(tmp_path / "p")]) == 2
    assert "must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


# result documents whose box list does not make one (N, n_w) pair of arrays
BAD_BOXES = {
    "empty": lambda d: d["W"].update(boxes=[]),
    "ragged": lambda d: d["W"]["boxes"][0].update(center=[0.0], halfwidth=[0.0]),
    "ragged-within-a-box": lambda d: d["W"]["boxes"][0].update(halfwidth=[0.0, 0.0, 0.0]),
}


@pytest.mark.parametrize("edit", sorted(BAD_BOXES))
def test_empty_or_ragged_box_list_is_2(tmp_path, small_spec_doc, small_result_doc, edit, capsys):
    bad = json.loads(json.dumps(small_result_doc))
    BAD_BOXES[edit](bad)
    spec_path = write_json(tmp_path / "spec.json", small_spec_doc)
    result_path = write_json(tmp_path / "result.json", bad)
    assert main(["verify", spec_path, result_path]) == 2
    assert main(["plot", spec_path, result_path, "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: bad result document: ") for line in err)
    assert not (tmp_path / "p").exists()


# result documents whose history is not a list of finite numbers; list() used
# to load a string as its characters and keep a list's entries as they were;
# and whose termination is not a string or certificates or timing not a JSON
# object, which str() and dict() used to coerce
BAD_HISTORY = {
    "string": lambda d: d.update(history="abc"),
    "mixed-entries": lambda d: d.update(history=[1, "x", None]),
    "termination-list": lambda d: d.update(termination=[1, 2]),
    "certificates-pairs": lambda d: d.update(certificates=[["x", 1]]),
    "timing-pairs": lambda d: d.update(timing=[["a", "b"]]),
}


@pytest.mark.parametrize("edit", sorted(BAD_HISTORY))
def test_malformed_history_is_2(tmp_path, small_spec_doc, small_result_doc, edit, capsys):
    bad = json.loads(json.dumps(small_result_doc))
    BAD_HISTORY[edit](bad)
    spec_path = write_json(tmp_path / "spec.json", small_spec_doc)
    result_path = write_json(tmp_path / "result.json", bad)
    assert main(["verify", spec_path, result_path]) == 2
    assert main(["plot", spec_path, result_path, "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: bad result document: ") for line in err)
    assert not (tmp_path / "p").exists()


# result documents whose witness does not make two 3-D arrays over the same (vertex, slot) pairs
BAD_WITNESS = {
    "ragged": lambda d: d["witness"]["points"][0].__setitem__(0, [0.0]),
    "flat": lambda d: d["witness"].update(weights=d["witness"]["weights"][0]),
    "groups-differ": lambda d: d["witness"].update(points=d["witness"]["points"][:-1]),
    "no-points": lambda d: d["witness"].pop("points"),
}


@pytest.mark.parametrize("edit", sorted(BAD_WITNESS))
def test_malformed_witness_is_2(tmp_path, small_spec_doc, small_result_doc, edit, capsys):
    bad = json.loads(json.dumps(small_result_doc))
    BAD_WITNESS[edit](bad)
    spec_path = write_json(tmp_path / "spec.json", small_spec_doc)
    assert main(["verify", spec_path, write_json(tmp_path / "result.json", bad)]) == 2
    assert capsys.readouterr().err.startswith("error: bad result document: ")


class TestWitness:
    """synth certifies coverage on the distance program's optimal point and
    stores it; verify checks a stored witness by arithmetic, and a document
    without one on the answers of per-vertex LPs."""

    def test_stored_and_read_back(self, small_spec_doc, small_result_doc):
        doc = ResultDoc.from_dict(small_result_doc)
        groups = (len(parse_spec(small_spec_doc).resolve_vertices()), doc.horizon + 1)
        assert doc.witness.weights.shape == groups + (doc.W.n_boxes,)
        assert doc.witness.points.shape == groups + (doc.W.dim,)
        np.testing.assert_allclose(doc.witness.weights.sum(axis=2), 1.0, rtol=0.0, atol=1e-9)
        again = ResultDoc.from_dict(doc.to_dict())
        assert again.witness == doc.witness and again.W == doc.W
        assert (again == doc) is False and (doc == doc) is True

    def test_synth_solves_no_vertex_lp(self, small_spec_doc, monkeypatch):
        solved = []

        def spy(lp, **kwargs):
            solved.append(lp)
            return lp_solver.solve_lp(lp, **kwargs)

        monkeypatch.setattr(verifier, "solve_lp", spy)
        spec = parse_spec(small_spec_doc)
        doc = cmd_synth(spec)
        assert len(solved) == 1  # the distance program, whose optimal point is the witness
        assert all(c["passed"] for c in doc.certificates.values())
        margins = [c["margin"] for name, c in doc.certificates.items() if name.startswith("vertex-")]
        best = inflation_margins(spec.sys, spec.resolve_vertices(), doc.W, doc.horizon, doc.H, doc.epsilon)
        # a witness margin is that of one point, at most the best one; the binding vertex has both 0
        assert np.all(np.array(margins) <= best + 1e-9)
        assert min(margins) == pytest.approx(min(best), abs=1e-9)

    def test_verify_of_a_witnessed_result_solves_no_lp(self, small_spec_doc, small_result_doc, monkeypatch):
        spec = parse_spec(small_spec_doc)
        listed = json.loads(json.dumps(small_spec_doc))
        listed["constraints"]["vertices"] = spec.resolve_vertices().tolist()
        listed = parse_spec(listed)
        doc = ResultDoc.from_dict(small_result_doc)
        runs = []
        real = lp_solver._run

        def spy(*args, **kwargs):
            runs.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lp_solver, "_run", spy)
        assert cmd_verify(listed, doc).as_dict() == doc.certificates
        assert runs == []
        # a spec that lists no vertices has those of Y enumerated, without an LP
        assert cmd_verify(spec, doc).as_dict() == doc.certificates
        assert runs == []

    def test_lowered_epsilon_entry_fails(self, small_spec_doc, small_result_doc):
        spec = parse_spec(small_spec_doc)
        active = [k for k, e in enumerate(small_result_doc["epsilon"]) if e > 1e-6]
        assert active
        for k in active:
            bad = json.loads(json.dumps(small_result_doc))
            bad["epsilon"][k] -= 1e-5
            failing = {c.name for c in cmd_verify(spec, ResultDoc.from_dict(bad)).checks if not c.passed}
            assert failing and all(name.startswith("vertex-") for name in failing), k

    def test_perturbed_reach_coefficients_fail(self, small_spec_doc, small_result_doc, monkeypatch):
        real = verifier.reach_coefficients
        monkeypatch.setattr(verifier, "reach_coefficients", lambda sys, horizon: 0.99 * real(sys, horizon))
        cert = cmd_verify(parse_spec(small_spec_doc), ResultDoc.from_dict(small_result_doc))
        failing = {c.name for c in cert.checks if not c.passed}
        assert failing and all(name.startswith("vertex-") for name in failing)

    @pytest.mark.parametrize("source", ["small", "frozen-illustrative"])
    def test_result_without_a_witness_is_checked_on_vertex_lp_answers(
        self, source, small_spec_doc, small_result_doc, monkeypatch
    ):
        if source == "small":
            spec, stored = parse_spec(small_spec_doc), json.loads(json.dumps(small_result_doc))
            del stored["witness"]
        else:
            spec = parse_spec(json.loads((ROOT / "specs" / "illustrative.json").read_text()))
            stored = json.loads((ROOT / "perfbench" / "data" / "illustrative_result.json").read_text())
            assert "witness" not in stored
        doc = ResultDoc.from_dict(stored)
        assert doc.witness is None and "witness" not in doc.to_dict()
        vertices = spec.resolve_vertices()
        solved = []

        def spy(lp, **kwargs):
            solved.append(lp)
            return lp_solver.solve_lp(lp, **kwargs)

        monkeypatch.setattr(verifier, "solve_lp", spy)
        cert = cmd_verify(spec, doc)
        assert len(vertices) > 1 and cert.passed and len(solved) == 1
        margins = [c.margin for c in cert.checks if c.name.startswith("vertex-")]
        reference = inflation_margins(spec.sys, vertices, doc.W, doc.horizon, doc.H, doc.epsilon)
        np.testing.assert_allclose(margins, reference, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("module", ["distsynth", "distsynth.cli"])
def test_module_entry_points_run_the_command(tmp_path, module):
    spec_path = str(ROOT / "specs" / "illustrative.json")
    good = ROOT / "perfbench" / "data" / "illustrative_result.json"
    bad = json.loads(good.read_text())
    bad["params"]["s"] = 60.5
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

    def run(result_path):
        cmd = [sys.executable, "-m", module, "verify", spec_path, str(result_path)]
        return subprocess.run(cmd, env=env, capture_output=True, text=True).returncode

    assert run(write_json(tmp_path / "result.json", bad)) == 2
    assert run(good) == 0


class TestVerifyRejects:
    @pytest.mark.parametrize("misfit", sorted(MISFITS))
    def test_result_that_does_not_fit_the_spec_is_2(self, tmp_path, small_spec_doc, small_result_doc, misfit, capsys):
        bad = json.loads(json.dumps(small_result_doc))
        MISFITS[misfit](bad)
        spec_path = write_json(tmp_path / "spec.json", small_spec_doc)
        assert main(["verify", spec_path, write_json(tmp_path / "result.json", bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_lowered_objective_fails_objective_bound(self, tmp_path, small_spec_doc, small_result_doc):
        bad = json.loads(json.dumps(small_result_doc))
        bad["objective"] -= 1e-3
        spec_path = write_json(tmp_path / "spec.json", small_spec_doc)
        assert main(["verify", spec_path, write_json(tmp_path / "result.json", bad)]) == 3
        cert = cmd_verify(parse_spec(small_spec_doc), ResultDoc.from_dict(bad))
        assert {c.name for c in cert.checks if not c.passed} == {"objective-bound"}
        assert cert.worst().margin == pytest.approx(-1e-3, abs=1e-12)


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

    def test_no_accessible_substate_is_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(PARTITIONED_SPEC))
        doc["system"].update(A21=[[]] * 4, C1=[[]] * 2)
        path = write_json(tmp_path / "partitioned.json", doc)
        assert main(["reduce", path, "--out", str(tmp_path / "spec.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "spec.json").exists()

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
        doc["options"].update({"N": 2, "l": 20})
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
            x1 = sample_batch(result.W, 1, rng)[0]
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

    @pytest.mark.parametrize("dims", [("0", "2", "2"), ("-1", "2", "2"), ("3", "0", "2"), ("3", "2", "0")])
    def test_empty_dimension_is_2(self, tmp_path, dims, capsys):
        nx, nw, ny = dims
        out = tmp_path / "spec.json"
        assert main(["gen", "--nx", nx, "--nw", nw, "--ny", ny, "--rho", "0.7", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: nx, nw and ny must be at least 1")
        assert not out.exists()

    def test_negative_seed_is_2(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        argv = ["gen", "--nx", "2", "--nw", "1", "--ny", "1", "--rho", "0.5", "--seed", "-1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: option seed must be an integer >= 0, not -1")
        assert not out.exists()

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
            W=BoxHullSet([[0.0, 0.0]], [[1.0, 1.0]]),
            epsilon=doc.epsilon,
            objective=doc.objective,
            horizon=doc.horizon,
            H=doc.H,
            certificates=doc.certificates,
            history=doc.history,
            iterations=doc.iterations,
            termination=doc.termination,
            l0=doc.l0,
            t0=doc.t0,
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
        W = hull_of((rng.uniform(-0.05, 0.05, 2), rng.uniform(0.0, 0.03, 2)) for _ in range(4))
        n_dirs = 48
        ang = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
        P = np.column_stack([np.cos(ang), np.sin(ang)])
        I = np.eye(sys.n_w)
        ref = np.zeros((n_dirs, 2))
        CA = sys.C.copy()
        for _ in range(params.s):
            Q = P @ CA
            for d in range(n_dirs):
                w_star = support_corners(I, Q[d] @ sys.B, W)[2][0]
                ref[d] += CA @ (sys.B @ w_star + params.lam * np.sign(Q[d])) / (1.0 - params.alpha)
            CA = CA @ sys.A
        for d in range(n_dirs):
            ref[d] += sys.D @ support_corners(I, P[d] @ sys.D, W)[2][0]
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
        widest = float(np.max(np.abs(result.W.centers) + result.W.halfwidths))
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


class TestPlotRejects:
    def test_illustrative_result_with_a_third_box_coordinate_is_2(self, tmp_path, capsys):
        from distsynth import h_preset

        params = RpiParams(s=60, alpha=6.781843723995092e-4, lam=6.796195472333852e-5, gamma=0.2, mu=1e-3)
        rng = np.random.default_rng(41)
        W = hull_of((rng.uniform(-0.05, 0.05, 3), rng.uniform(0.0, 0.03, 3)) for _ in range(4))
        H = h_preset("uniform:6", 2)
        doc = ResultDoc(params, W, np.full(6, 0.2), 1.2, 59, H, {}, [], 0, "converged", l0=59, t0=60)
        spec_path = write_json(tmp_path / "spec.json", PENTAGON_SPEC)
        result_path = write_json(tmp_path / "result.json", doc.to_dict())
        assert main(["plot", spec_path, result_path, "--out", str(tmp_path / "p")]) == 2
        assert capsys.readouterr().err.startswith("error: boxes of W must have dimension 2")
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("misfit", sorted(MISFITS))
    def test_result_that_does_not_fit_the_spec_is_2(self, tmp_path, small_spec_doc, small_result_doc, misfit, capsys):
        bad = json.loads(json.dumps(small_result_doc))
        MISFITS[misfit](bad)
        spec_path = write_json(tmp_path / "spec.json", small_spec_doc)
        result_path = write_json(tmp_path / "result.json", bad)
        assert main(["plot", spec_path, result_path, "--out", str(tmp_path / "p")]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestEveryOverrideFlag:
    def test_each_synth_flag_lands_on_its_option(self, tmp_path):
        from distsynth.cli import _OPTION_TABLE, _apply_overrides, _build_parser

        rows = [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]
        flags = {
            "--mu": ("0.02", "mu", 0.02),
            "--gamma": ("0.5", "gamma", 0.5),
            "--seed": ("7", "seed", 7),
            "--N": ("3", "n_boxes", 3),
            "--l": ("11", "horizon", 11),
            "--H": (write_json(tmp_path / "rows.json", rows), "H", rows),
            "--restarts": ("2", "restarts", 2),
        }
        assert {attr for _, attr, _ in flags.values()} == {attr for _, attr, _, _ in _OPTION_TABLE}
        argv = ["synth", "spec.json"] + [tok for flag, (val, _, _) in flags.items() for tok in (flag, val)]
        spec = _apply_overrides(parse_spec(PENTAGON_SPEC), _build_parser().parse_args(argv))
        for flag, (_, attr, expected) in flags.items():
            assert getattr(spec.options, attr) == expected, flag
        for preset in ("box", "uniform:5"):
            args = _build_parser().parse_args(["synth", "spec.json", "--H", preset])
            assert _apply_overrides(parse_spec(PENTAGON_SPEC), args).options.H == preset

    def test_params_flags_leave_synth_options_alone(self):
        from distsynth.cli import _apply_overrides, _build_parser

        args = _build_parser().parse_args(["params", "spec.json", "--mu", "0.02"])
        opts = _apply_overrides(parse_spec(PENTAGON_SPEC), args).options
        assert opts == Options.from_dict({**PENTAGON_SPEC["options"], "mu": 0.02})

    def test_readme_synopsis_lists_exactly_each_commands_flags(self):
        import argparse
        import re

        from distsynth.cli import _build_parser

        block = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("```")[1]
        listed = {}
        for line in block.strip().splitlines():
            if line.startswith("distsynth "):
                command = line.split()[1]
            listed.setdefault(command, set()).update(re.findall(r"--[\w-]+", line))
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        built = {
            name: {flag for action in p._actions for flag in action.option_strings if flag not in ("-h", "--help")}
            for name, p in sub.choices.items()
        }
        assert listed == built


def _workload_specs():
    """The problems of the benchmark workloads: the two bundled specs and
    four generated ones with two restarts each."""
    generated = []
    for n_x in (3, 6):
        for seed in (0, 1):
            spec = cmd_gen(n_x, 2, 2, 0.7, seed)
            spec.options.restarts = 2
            generated.append(spec)
    return {
        "illustrative": [parse_spec(json.loads((ROOT / "specs" / "illustrative.json").read_text()))],
        "long-horizon": [cmd_reduce(json.loads((ROOT / "specs" / "reduced_order_plant.json").read_text()))],
        "gen-batch": generated,
    }


class TestBudgetTail:
    @pytest.fixture(scope="class")
    def synthesized(self):
        return {name: [(spec, cmd_synth(spec)) for spec in specs] for name, specs in _workload_specs().items()}

    def test_every_emitted_w_passes_output_inclusion(self, synthesized):
        for runs in synthesized.values():
            for spec, doc in runs:
                assert doc.t0 < doc.params.s  # the tail is in use
                assert verifier.verify_output_inclusion(spec.sys, spec.Y, doc.params, doc.W).passed
                assert all(c["passed"] for c in doc.certificates.values())

    def test_workload_objectives(self, synthesized):
        objectives = {name: sum(doc.objective for _, doc in runs) for name, runs in synthesized.items()}
        expected = {"illustrative": 1.0394, "long-horizon": 0.9176, "gen-batch": 7.2863}
        assert objectives == pytest.approx(expected, abs=1e-4)
        assert [doc.t0 for _, doc in synthesized["illustrative"] + synthesized["long-horizon"]] == [26, 67]
