"""End-user pipeline: load or generate problems, pick certification
parameters, synthesize a disturbance set, certify it, and emit plot data.

Problem and result documents are JSON files; the worked examples live in
specs/ and the schema is described in the README.  Exit codes: 0 on success
(all certificates pass for ``verify``), 2 for malformed or unreadable documents
and an ``--out`` that cannot be written (and for ``verify`` and ``plot``, a
result that does not fit its spec or claims less than it asks), 3 for assumption violations,
infeasibility or an unbounded or empty constraint set, 4 for solver failures;
a failing LP (synthesis, exact distance, or the one coverage LP of ``verify``
on a result without a witness) is written to ``failed_lp.lp`` beside the
``--out`` target, or to the current directory without one.
"""

from __future__ import annotations

import argparse
import json
import numbers
import re
import sys as _sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoder, synthesizer, verifier
from .lp_solver import LpFailure, write_lp
from .rpi_params import ParamSearchError, RpiParams, select_params
from .setgeom import (
    BoxHullSet,
    GeometryError,
    HPolytope,
    LtiSystem,
    hull_outline,
    merge_vertices,
    power_chain,
    simulate,
    spectral_radius,
    stacked_identity,
    support_corners,
    vertices_hpoly,
)


class SpecError(ValueError):
    pass


class AssumptionError(ValueError):
    pass


# one row per option: document key, attribute, least value, and whether
# ``params`` takes its flag.  An int least value makes an integer option, which
# may equal it; a float one a finite real option, which must exceed it.  H has
# none: ProblemSpec.resolve_h checks it.
_OPTION_TABLE = (
    ("mu", "mu", 0.0, True),
    ("gamma", "gamma", 0.0, True),
    ("seed", "seed", 0, False),
    ("N", "n_boxes", 1, False),
    ("l", "horizon", 1, False),  # or None, the certified s
    ("H", "H", None, False),
    ("restarts", "restarts", 0, False),
)


@dataclass
class Options:
    mu: float = 1e-3
    gamma: float = 1.0
    n_boxes: int = 4
    horizon: int | None = None  # defaults to the certified s
    H: object = "box"  # preset name or explicit rows
    seed: int = 0
    restarts: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "Options":
        """Options from document keys; SpecError on an unknown key or a value of
        the wrong type or out of range."""
        opts = cls()
        rows = {key: (attr, least) for key, attr, least, _ in _OPTION_TABLE}
        for key, val in d.items():
            if key not in rows:
                raise SpecError(f"unknown option {key!r}")
            attr, least = rows[key]
            if least is not None and not (attr == "horizon" and val is None):
                integer = isinstance(least, int)
                kind = numbers.Integral if integer else numbers.Real
                if isinstance(val, bool) or not isinstance(val, kind) or not (
                    val >= least if integer else np.isfinite(val) and val > least
                ):
                    want = f"an integer >= {least}" if integer else f"a finite number > {least:g}"
                    raise SpecError(f"option {key} must be {want}, not {val!r}")
            setattr(opts, attr, val)
        return opts

    def to_dict(self) -> dict:
        return {key: getattr(self, attr) for key, attr, _, _ in _OPTION_TABLE}


@dataclass
class ProblemSpec:
    sys: LtiSystem
    Y: HPolytope
    vertices: np.ndarray | None
    options: Options

    def resolve_h(self) -> np.ndarray:
        """The H option as a matrix; SpecError unless it is a finite one with a
        column per output."""
        try:
            if isinstance(self.options.H, str):
                H = encoder.h_preset(self.options.H, self.sys.n_y)
            else:
                H = np.atleast_2d(np.asarray(self.options.H, dtype=float))
        except (TypeError, ValueError) as exc:  # EncodingError is a ValueError
            raise SpecError(f"bad option H: {exc}") from exc
        if H.ndim != 2 or H.shape[1] != self.sys.n_y or not np.all(np.isfinite(H)):
            raise SpecError(f"option H must be a finite matrix with {self.sys.n_y} columns, one per output")
        return H

    def resolve_vertices(self) -> np.ndarray:
        """The supplied vertex list less repeats (``merge_vertices``), or the
        enumerated vertices of Y."""
        return vertices_hpoly(self.Y) if self.vertices is None else merge_vertices(self.vertices)

    def to_dict(self) -> dict:
        doc = {
            "system": {
                "A": self.sys.A.tolist(),
                "B": self.sys.B.tolist(),
                "C": self.sys.C.tolist(),
                "D": self.sys.D.tolist(),
            },
            "constraints": {"G": self.Y.G.tolist(), "g": self.Y.g.tolist()},
            "options": self.options.to_dict(),
        }
        if self.vertices is not None:
            doc["constraints"]["vertices"] = self.vertices.tolist()
        return doc


def _matrix(d: dict, key: str, ctx: str, ndmin: int = 2) -> np.ndarray:
    if key not in d:
        raise SpecError(f"missing {ctx} entry {key!r}")
    try:
        a = np.array(d[key], dtype=float, ndmin=ndmin)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad {ctx} entry {key!r}: {exc}") from exc
    if not np.all(np.isfinite(a)):
        raise SpecError(f"{ctx} entry {key!r} must be finite")
    return a


def _stable_matrix(d: dict, key: str, ctx: str, what: str) -> np.ndarray:
    A = _matrix(d, key, ctx)
    if A.shape[0] != A.shape[1]:
        raise SpecError(f"{what} must be square")
    if spectral_radius(A) >= 1.0:
        raise AssumptionError(f"{what} must be strictly stable (spectral radius {spectral_radius(A):.6g})")
    return A


def _sections(doc) -> tuple[dict, dict, dict]:
    """The system, constraints and options sections of a problem document;
    SpecError unless the document and each of them is a JSON object."""
    if not isinstance(doc, dict) or "system" not in doc or "constraints" not in doc:
        raise SpecError("document needs 'system' and 'constraints' sections")
    sections = (doc["system"], doc["constraints"], doc.get("options", {}))
    for name, section in zip(("system", "constraints", "options"), sections):
        if not isinstance(section, dict):
            raise SpecError(f"section {name!r} must be a JSON object, not {section!r}")
    return sections


def parse_spec(doc: dict) -> ProblemSpec:
    """Validate and build a problem from its JSON document."""
    sd, cd, od = _sections(doc)
    A = _stable_matrix(sd, "A", "system", "system matrix A")
    try:
        sys_ = LtiSystem(A, _matrix(sd, "B", "system"), _matrix(sd, "C", "system"), _matrix(sd, "D", "system"))
    except GeometryError as exc:
        raise SpecError(str(exc)) from exc
    try:
        Y = HPolytope(_matrix(cd, "G", "constraint"), _matrix(cd, "g", "constraint", ndmin=1))
    except GeometryError as exc:
        raise SpecError(f"bad constraint set: {exc}") from exc
    if Y.dim != sys_.n_y:
        raise SpecError("constraint set dimension does not match the output dimension")
    if np.any(Y.g <= 0):
        raise AssumptionError("constraint offsets must be strictly positive")
    vertices = None
    if "vertices" in cd:
        vertices = _matrix(cd, "vertices", "constraint")
        if vertices.shape[1] != sys_.n_y:
            raise SpecError("vertex dimension does not match the output dimension")
        outside = ~Y.contains(vertices)
        if outside.any():
            raise SpecError(f"vertex {vertices[np.argmax(outside)].tolist()} lies outside the constraint set")
    spec = ProblemSpec(sys_, Y, vertices, Options.from_dict(od))
    spec.resolve_h()
    return spec


def _finite(value, what: str):
    """``value`` unchanged; ValueError if any number in it is not finite."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{what} must be finite")
    return value


def _integer(value, what: str):
    """``value`` unchanged; ValueError unless it is an integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _typed(value, kind: type, what: str, name: str):
    """``value`` unchanged; ValueError unless it is a ``kind``, called ``name``."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {name}, not {value!r}")
    return value


def _params_dict(params: RpiParams) -> dict:
    return {"s": params.s, "alpha": params.alpha, "lambda": params.lam, "gamma": params.gamma, "mu": params.mu}


@dataclass(eq=False)
class ResultDoc:
    params: RpiParams
    W: BoxHullSet
    epsilon: np.ndarray
    objective: float
    horizon: int
    H: np.ndarray
    certificates: dict
    history: list
    iterations: int
    termination: str
    l0: int  # coverage horizon of the alternation (and history)
    t0: int  # first output-inclusion term of the shared tail bound; s means no tail
    timing: dict = field(default_factory=dict)
    p_nit: list = field(default_factory=list)  # simplex iterations per P-step
    witness: verifier.CoverageWitness | None = None  # None in documents written before results stored it

    def to_dict(self) -> dict:
        doc = {
            "params": _params_dict(self.params),
            "W": {
                "boxes": [
                    {"center": c, "halfwidth": e} for c, e in zip(self.W.centers.tolist(), self.W.halfwidths.tolist())
                ]
            },
            "epsilon": self.epsilon.tolist(),
            "objective": self.objective,
            "l": self.horizon,
            "l0": self.l0,
            "t0": self.t0,
            "H": self.H.tolist(),
            "certificates": self.certificates,
            "history": list(self.history),
            "p_nit": list(self.p_nit),
            "iterations": self.iterations,
            "termination": self.termination,
            "timing": self.timing,
        }
        if self.witness is not None:
            doc["witness"] = {"weights": self.witness.weights.tolist(), "points": self.witness.points.tolist()}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ResultDoc":
        """The stored result; SpecError on a missing or malformed entry: a
        non-finite number in params, the boxes, epsilon, objective, H, the
        history or the witness, a history that is not a list of numbers, a
        non-integer s, l, l0, t0, iterations or p_nit entry, a termination that
        is not a string, certificates or timing that are not a JSON object, or
        witness arrays that are ragged or not 3-D over the same (vertex, slot) pairs.
        A document without l0 (written before it existed) alternated at l, one
        without t0 kept every output-inclusion term, and one without a witness
        is verified by one coverage LP."""
        try:
            p = doc["params"]
            params = RpiParams(
                s=_integer(p["s"], "s"),
                alpha=_finite(float(p["alpha"]), "alpha"),
                lam=_finite(float(p["lambda"]), "lambda"),
                gamma=_finite(float(p["gamma"]), "gamma"),
                mu=_finite(float(p["mu"]), "mu"),
            )
            witness = doc.get("witness")
            if witness is not None:
                witness = verifier.CoverageWitness(
                    *(_finite(np.array(witness[key], dtype=float), f"witness {key}") for key in ("weights", "points"))
                )
            history = _finite(np.array(doc.get("history", []), dtype=float), "history")
            if history.ndim != 1:
                raise ValueError("history must be a list of numbers")
            boxes = doc["W"]["boxes"]
            centers, halfwidths = (
                _finite(np.array([b[key] for b in boxes], dtype=float), f"box {key}") for key in ("center", "halfwidth")
            )
            return cls(
                params=params,
                W=BoxHullSet(centers, halfwidths),
                epsilon=_finite(np.asarray(doc["epsilon"], dtype=float), "epsilon"),
                objective=_finite(float(doc["objective"]), "objective"),
                horizon=_integer(doc["l"], "l"),
                H=_finite(np.asarray(doc["H"], dtype=float), "H"),
                certificates=_typed(doc.get("certificates", {}), dict, "certificates", "JSON object"),
                history=history.tolist(),
                iterations=_integer(doc.get("iterations", 0), "iterations"),
                termination=_typed(doc.get("termination", ""), str, "termination", "string"),
                timing=_typed(doc.get("timing", {}), dict, "timing", "JSON object"),
                p_nit=[_integer(n, "p_nit entry") for n in doc.get("p_nit", [])],
                l0=_integer(doc.get("l0", doc["l"]), "l0"),
                t0=_integer(doc.get("t0", params.s), "t0"),
                witness=witness,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"bad result document: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_params(spec: ProblemSpec) -> dict:
    start = time.perf_counter()
    params = select_params(spec.sys, spec.Y, gamma=spec.options.gamma, mu=spec.options.mu)
    elapsed = time.perf_counter() - start
    cert = verifier.verify_params(spec.sys, spec.Y, params)
    return {
        "params": _params_dict(params),
        "margins": cert.as_dict(),
        "timing": {"params_s": elapsed},
    }


def cmd_synth(spec: ProblemSpec) -> ResultDoc:
    """Alternate at the short horizon ``encoder.short_horizon`` gives, with
    the output-inclusion tail ``encoder.budget_tail`` gives, then state the
    exact distance of the emitted W at the coverage horizon l and certify it
    there, coverage on the distance program's optimal point, which the result
    stores as its witness; W stays certified at l because it holds the
    origin."""
    start = time.perf_counter()
    params = select_params(spec.sys, spec.Y, gamma=spec.options.gamma, mu=spec.options.mu)
    t_params = time.perf_counter() - start
    vertices = spec.resolve_vertices()
    horizon = spec.options.horizon if spec.options.horizon is not None else params.s
    H = spec.resolve_h()
    l0 = encoder.short_horizon(spec.sys, horizon)
    t0 = encoder.budget_tail(spec.sys, spec.Y, params)
    problem = encoder.assemble(spec.sys, spec.Y, vertices, params, spec.options.n_boxes, l0, H, t0)
    start = time.perf_counter()
    result = synthesizer.alternate(problem, synthesizer.spread_beta(problem.layout))
    # restarts by position: perfbench/tracer.py reads it as refine's third argument
    result = synthesizer.refine(problem, result, spec.options.restarts, np.random.default_rng(spec.options.seed))
    t_synth = time.perf_counter() - start
    start = time.perf_counter()
    epsilon, objective, witness = verifier.distance_witness(spec.sys, vertices, result.W, horizon, H)
    t_distance = time.perf_counter() - start
    start = time.perf_counter()
    cert = verifier.certify(spec.sys, spec.Y, params, result.W, vertices, horizon, H, epsilon, objective, witness)
    t_verify = time.perf_counter() - start
    return ResultDoc(
        params=params,
        W=result.W,
        epsilon=epsilon,
        objective=objective,
        horizon=horizon,
        H=H,
        certificates=cert.as_dict(),
        history=result.history,
        iterations=result.iterations,
        termination=result.termination,
        timing={"params_s": t_params, "synth_s": t_synth, "distance_s": t_distance, "verify_s": t_verify},
        p_nit=result.p_nit,
        l0=l0,
        t0=t0,
        witness=witness,
    )


def _check_fit(spec: ProblemSpec, doc: ResultDoc, vertices: np.ndarray) -> None:
    """Raise SpecError unless the result's horizons, tail start, H, epsilon,
    boxes and witness fit the spec and the vertices of its Y, and it claims
    what the spec asks: gamma and mu at most the spec's, l at most the spec's
    l when the spec sets one, and the spec's H to within H_TOL entrywise."""
    n_y, n_w, opts = spec.sys.n_y, spec.sys.n_w, spec.options
    if doc.params.gamma > opts.gamma or doc.params.mu > opts.mu:
        raise SpecError(
            f"result claims gamma {doc.params.gamma!r} and mu {doc.params.mu!r}; "
            f"the spec asks for at most {opts.gamma!r} and {opts.mu!r}"
        )
    if opts.horizon is not None and doc.horizon > opts.horizon:
        raise SpecError(f"result claims coverage at l = {doc.horizon}; the spec asks for l = {opts.horizon}")
    if doc.horizon < 1:
        raise SpecError(f"coverage horizon l must be at least 1, not {doc.horizon}")
    if not 1 <= doc.l0 <= doc.horizon:
        raise SpecError(f"alternation horizon l0 must lie in 1..l = {doc.horizon}, not {doc.l0}")
    if not 1 <= doc.t0 <= doc.params.s:
        raise SpecError(f"budget tail start t0 must lie in 1..s = {doc.params.s}, not {doc.t0}")
    if doc.H.ndim != 2 or doc.H.shape[1] != n_y:
        raise SpecError(f"H must be a matrix with {n_y} columns, one per output")
    H = spec.resolve_h()
    if doc.H.shape != H.shape or not np.all(np.abs(doc.H - H) <= encoder.H_TOL):
        raise SpecError(f"result's H is not the spec's H option {opts.H!r}: its widths run along other directions")
    if doc.epsilon.shape != (doc.H.shape[0],):
        raise SpecError(f"epsilon must have one entry per row of H ({doc.H.shape[0]})")
    if doc.W.dim != n_w:
        raise SpecError(f"boxes of W must have dimension {n_w}, one per disturbance input")
    if doc.witness is not None:
        groups = (len(vertices), doc.horizon + 1)
        if doc.witness.weights.shape != groups + (doc.W.n_boxes,) or doc.witness.points.shape != groups + (n_w,):
            raise SpecError(
                f"witness must hold weights {groups + (doc.W.n_boxes,)} and points {groups + (n_w,)}: "
                "(vertices of Y, l + 1, boxes or disturbance inputs)"
            )


def cmd_verify(spec: ProblemSpec, doc: ResultDoc) -> verifier.Certificate:
    vertices = spec.resolve_vertices()
    _check_fit(spec, doc, vertices)
    return verifier.certify(
        spec.sys, spec.Y, doc.params, doc.W, vertices, doc.horizon, doc.H, doc.epsilon, doc.objective, doc.witness
    )


def cmd_reduce(doc: dict) -> ProblemSpec:
    """Map a partitioned plant onto the standard problem.

    The accessible substate acts as the disturbance on the hidden one, so the
    hidden block A22 becomes the dynamics, the coupling A21 the input map,
    and the output mixes the hidden state (via C2) with the direct term C1.
    """
    sd, cd, od = _sections(doc)
    for key in ("A11", "A12", "A21", "A22", "B1", "C1", "C2"):
        _matrix(sd, key, "partitioned system")
    A22 = _stable_matrix(sd, "A22", "partitioned system", "hidden block A22")
    mapped = {
        "system": {
            "A": A22.tolist(),
            "B": _matrix(sd, "A21", "partitioned system").tolist(),
            "C": _matrix(sd, "C2", "partitioned system").tolist(),
            "D": _matrix(sd, "C1", "partitioned system").tolist(),
        },
        "constraints": cd,
        "options": od,
    }
    return parse_spec(mapped)


def cmd_gen(n_x: int, n_w: int, n_y: int, rho_target: float, seed: int) -> ProblemSpec:
    """Random stable test system with a unit-box constraint set."""
    if min(n_x, n_w, n_y) < 1:
        raise SpecError("nx, nw and ny must be at least 1")
    if not (0.0 < rho_target < 1.0):
        raise SpecError("rho must lie in (0, 1)")
    options = Options.from_dict({"mu": 1e-2, "gamma": 1.0, "N": 5, "H": "box", "seed": seed})
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_x, n_x))
    A = 0.5 * (A + A.T)
    A = A * (rho_target / spectral_radius(A))
    B = rng.standard_normal((n_x, n_w))
    C = rng.standard_normal((n_y, n_x))
    D = rng.standard_normal((n_y, n_w))
    Y = HPolytope(stacked_identity(n_y), np.ones(2 * n_y))
    return ProblemSpec(LtiSystem(A, B, C, D), Y, None, options)


def _ring_sort(points: np.ndarray) -> np.ndarray:
    center = points.mean(axis=0)
    ang = np.arctan2(points[:, 1] - center[1], points[:, 0] - center[0])
    return points[np.argsort(ang)]


# reachable_outline samples the bound in this many evenly spaced directions
OUTLINE_DIRS = 360


def reachable_outline(sys: LtiSystem, params: RpiParams, W: BoxHullSet) -> np.ndarray:
    """Boundary sample of the certified reachable-output bound (planar only).

    Each row is the exact support point of the bound in one of OUTLINE_DIRS
    directions, so the polygon they trace is inscribed in the bound.
    """
    if sys.n_y != 2:
        raise GeometryError("outline is defined for two outputs only")
    ang = 2.0 * np.pi * np.arange(OUTLINE_DIRS) / OUTLINE_DIRS
    P = np.column_stack([np.cos(ang), np.sin(ang)])

    scale = 1.0 / (1.0 - params.alpha)
    pts = np.zeros((OUTLINE_DIRS, 2))
    for CA in power_chain(sys.C, sys.A, params.s):  # C A^t, t = 0..s-1
        Q = P @ CA  # state-space directions
        drive = support_corners(sys.B, Q, W)[2] @ sys.B.T + params.lam * np.sign(Q)
        pts += scale * (drive @ CA.T)
    pts += support_corners(sys.D, P, W)[2] @ sys.D.T
    return pts


def cmd_plot(doc: ResultDoc, spec: ProblemSpec, out_dir) -> list:
    vertices = spec.resolve_vertices()
    _check_fit(spec, doc, vertices)
    written = []

    def emit(name: str, points: np.ndarray):
        path = Path(out_dir) / name
        _write_text(path, "".join(",".join(repr(float(v)) for v in row) + "\n" for row in np.atleast_2d(points)))
        written.append(path)

    if spec.sys.n_w == 2:
        emit("w_set.csv", hull_outline(doc.W))
    if spec.sys.n_y == 2:
        emit("y_set.csv", _ring_sort(vertices))
        emit("reach_set.csv", reachable_outline(spec.sys, doc.params, doc.W))
        rng = np.random.default_rng(spec.options.seed)
        _, Yt, _ = simulate(spec.sys, doc.W, np.zeros(spec.sys.n_x), 2000, rng)
        emit("trajectory.csv", Yt)
    if not written:
        raise GeometryError("no planar panel to emit: need two inputs or two outputs")
    return written


# ---------------------------------------------------------------------------
# document IO and entry point


_PLAIN = frozenset((float, int, bool, str, type(None)))


def _to_jsonable(obj):
    """``obj`` with fresh dicts and lists, every array a list by one
    ``tolist`` and every numpy scalar a Python one; a list of plain values
    (the rows ``tolist`` makes) is copied whole, not walked value by value."""
    if isinstance(obj, (list, tuple)):
        return list(obj) if _PLAIN.issuperset(map(type, obj)) else [_to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _dump_json(doc: dict, path: str | None) -> None:
    text = json.dumps(_to_jsonable(doc), indent=2)
    # each list of numbers (a vector, or one row of a matrix) on one line; no
    # string holds a raw newline, so "[\n" opens a list
    text = re.sub(r'\[\n\s*([^\[\]{}"]*?)\n\s*\]', lambda m: "[" + re.sub(r",\n\s*", ", ", m[1]) + "]", text)
    if path is None:
        print(text)
    else:
        _write_text(Path(path), text + "\n")


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, making its directory; SpecError if it cannot."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc}") from exc


def _writable_out(out: str | None, default_name: str) -> str | None:
    """``_out_path``'s target with its directory made, so that an unusable
    ``--out`` fails before any work; SpecError if the directory cannot be made."""
    path = _out_path(out, default_name)
    if path is not None:
        try:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SpecError(f"cannot write {path}: {exc}") from exc
    return path


def _load_json(path: str) -> dict:
    """The JSON document at ``path``; SpecError if it cannot be read as UTF-8
    text (missing, a directory, unreadable) or is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError(f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed JSON in {path}: {exc}") from exc


def _apply_overrides(spec: ProblemSpec, args) -> ProblemSpec:
    """Set the option of every given flag, with parse_spec's checks; each
    flag's dest is its document key."""
    given = {key: getattr(args, key) for key, *_ in _OPTION_TABLE if getattr(args, key, None) is not None}
    if "H" in given and given["H"] != "box" and not given["H"].startswith("uniform:"):
        given["H"] = _load_json(given["H"])  # a path to a JSON row matrix
    spec.options = Options.from_dict({**spec.options.to_dict(), **given})
    spec.resolve_h()
    return spec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distsynth",
        description="Synthesize and certify disturbance sets for constrained LTI systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_synth=True):
        p.add_argument("spec", help="problem document (JSON)")
        for key, _, least, in_params in _OPTION_TABLE:
            if with_synth or in_params:
                flag = "--" + key.replace("_", "-")
                if least is None:
                    p.add_argument(flag, help="box | uniform:k | path to a JSON row matrix")
                else:
                    p.add_argument(flag, dest=key, type=type(least))
        p.add_argument("--out", help="output file or directory")

    common(sub.add_parser("params", help="select certification parameters"), with_synth=False)
    common(sub.add_parser("synth", help="synthesize and certify a disturbance set"))

    p = sub.add_parser("verify", help="re-certify a stored result")
    p.add_argument("spec")
    p.add_argument("result")

    p = sub.add_parser("reduce", help="map a partitioned plant to a standard problem")
    p.add_argument("spec")
    p.add_argument("--out")

    p = sub.add_parser("gen", help="generate a random stable problem")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--nw", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("plot", help="emit polygon and trajectory data files")
    p.add_argument("spec")
    p.add_argument("result")
    p.add_argument("--out", default="plots")
    return parser


def _out_path(out: str | None, default_name: str) -> str | None:
    if out is None:
        return None
    path = Path(out)
    if path.is_dir() or not path.suffix:
        return str(path / default_name)
    return str(path)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "params":
            spec = _apply_overrides(parse_spec(_load_json(args.spec)), args)
            out = _writable_out(args.out, "params.json")
            frag = cmd_params(spec)
            _dump_json(frag, out)
            p = frag["params"]
            print(
                f"s={p['s']} alpha={p['alpha']:.6e} lambda={p['lambda']:.6e}",
                file=_sys.stderr,
            )
            return 0
        if args.command == "synth":
            spec = _apply_overrides(parse_spec(_load_json(args.spec)), args)
            out = _writable_out(args.out, "result.json")
            doc = cmd_synth(spec)
            _dump_json(doc.to_dict(), out)
            ok = all(c["passed"] for c in doc.certificates.values())
            print(
                f"objective={doc.objective:.6g} iterations={doc.iterations} "
                f"certificates={'pass' if ok else 'FAIL'}",
                file=_sys.stderr,
            )
            return 0 if ok else 3
        if args.command == "verify":
            spec = parse_spec(_load_json(args.spec))
            doc = ResultDoc.from_dict(_load_json(args.result))
            cert = cmd_verify(spec, doc)
            print(cert.report())
            return 0 if cert.passed else 3
        if args.command == "reduce":
            spec = cmd_reduce(_load_json(args.spec))
            _dump_json(spec.to_dict(), _out_path(args.out, "spec.json"))
            return 0
        if args.command == "gen":
            spec = cmd_gen(args.nx, args.nw, args.ny, args.rho, args.seed)
            _dump_json(spec.to_dict(), _out_path(args.out, "spec.json"))
            return 0
        if args.command == "plot":
            spec = parse_spec(_load_json(args.spec))
            doc = ResultDoc.from_dict(_load_json(args.result))
            files = cmd_plot(doc, spec, args.out)
            for f in files:
                print(f, file=_sys.stderr)
            return 0
    except SpecError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except (AssumptionError, ParamSearchError, GeometryError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        if isinstance(exc, LpFailure) and exc.lp is not None:
            # the failing program, beside where result.json would have gone
            path = Path(_out_path(getattr(args, "out", None), "result.json") or "result.json").parent / "failed_lp.lp"
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                write_lp(exc.lp, path)
                print(f"failing LP written to {path}", file=_sys.stderr)
            except OSError as err:
                print(f"error: cannot write the failing LP to {path}: {err}", file=_sys.stderr)
        return 4
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
