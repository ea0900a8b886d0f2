"""End-user pipeline: load or generate problems, pick certification
parameters, synthesize a disturbance set, certify it, and emit plot data.

Problem and result documents are JSON files; the worked examples live in
specs/ and the schema is described in the README.  Exit codes: 0 on success
(all certificates pass for ``verify``), 2 for malformed documents, 3 for
assumption violations or infeasibility, 4 for solver failures; a failing
synthesis LP is written to ``failed_lp.lp`` beside the ``--out`` target.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoder, synthesizer, verifier
from .lp_solver import write_lp
from .rpi_params import ParamSearchError, RpiParams, select_params
from .setgeom import (
    Box,
    BoxHullSet,
    GeometryError,
    HPolytope,
    LtiSystem,
    hull_outline,
    sample_batch,
    simulate,
    spectral_radius,
    stacked_identity,
    vertices_hpoly,
)
from .synthesizer import SynthesisError


class SpecError(ValueError):
    pass


class AssumptionError(ValueError):
    pass


@dataclass
class Options:
    mu: float = 1e-3
    gamma: float = 1.0
    n_boxes: int = 4
    horizon: int | None = None  # defaults to the certified s
    H: object = "box"  # preset name or explicit rows
    zeta: float = 1e-4
    max_iters: int = 100
    seed: int = 0
    s_max: int = 1000
    restarts: int = 0

    _KEYS = {
        "mu": "mu",
        "gamma": "gamma",
        "N": "n_boxes",
        "l": "horizon",
        "H": "H",
        "zeta": "zeta",
        "max_iters": "max_iters",
        "seed": "seed",
        "s_max": "s_max",
        "restarts": "restarts",
    }

    @classmethod
    def from_dict(cls, d: dict) -> "Options":
        opts = cls()
        for key, val in d.items():
            if key not in cls._KEYS:
                raise SpecError(f"unknown option {key!r}")
            setattr(opts, cls._KEYS[key], val)
        return opts

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "gamma": self.gamma,
            "N": self.n_boxes,
            "l": self.horizon,
            "H": self.H,
            "zeta": self.zeta,
            "max_iters": self.max_iters,
            "seed": self.seed,
            "s_max": self.s_max,
            "restarts": self.restarts,
        }


@dataclass
class ProblemSpec:
    sys: LtiSystem
    Y: HPolytope
    vertices: np.ndarray | None
    options: Options

    def resolve_h(self) -> np.ndarray:
        if isinstance(self.options.H, str):
            return encoder.h_preset(self.options.H, self.sys.n_y)
        return np.atleast_2d(np.asarray(self.options.H, dtype=float))

    def resolve_vertices(self) -> np.ndarray:
        if self.vertices is not None:
            return self.vertices
        return vertices_hpoly(self.Y)

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


def _matrix(d: dict, key: str, ctx: str) -> np.ndarray:
    if key not in d:
        raise SpecError(f"missing {ctx} matrix {key!r}")
    try:
        return np.atleast_2d(np.asarray(d[key], dtype=float))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad {ctx} matrix {key!r}: {exc}") from exc


def parse_spec(doc: dict) -> ProblemSpec:
    """Validate and build a problem from its JSON document."""
    if not isinstance(doc, dict) or "system" not in doc or "constraints" not in doc:
        raise SpecError("document needs 'system' and 'constraints' sections")
    sd = doc["system"]
    A = _matrix(sd, "A", "system")
    if spectral_radius(A) >= 1.0:
        raise AssumptionError(
            f"system matrix A must be strictly stable (spectral radius {spectral_radius(A):.6g})"
        )
    try:
        sys_ = LtiSystem(A, _matrix(sd, "B", "system"), _matrix(sd, "C", "system"), _matrix(sd, "D", "system"))
    except GeometryError as exc:
        raise SpecError(str(exc)) from exc
    cd = doc["constraints"]
    try:
        Y = HPolytope(_matrix(cd, "G", "constraint"), np.asarray(cd.get("g"), dtype=float))
    except (GeometryError, TypeError, ValueError) as exc:
        raise SpecError(f"bad constraint set: {exc}") from exc
    if Y.dim != sys_.n_y:
        raise SpecError("constraint set dimension does not match the output dimension")
    if np.any(Y.g <= 0):
        raise AssumptionError("constraint offsets must be strictly positive")
    vertices = None
    if "vertices" in cd:
        vertices = np.atleast_2d(np.asarray(cd["vertices"], dtype=float))
        if vertices.shape[1] != sys_.n_y:
            raise SpecError("vertex dimension does not match the output dimension")
    options = Options.from_dict(doc.get("options", {}))
    return ProblemSpec(sys_, Y, vertices, options)


@dataclass
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
    timing: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "params": {
                "s": self.params.s,
                "alpha": self.params.alpha,
                "lambda": self.params.lam,
                "gamma": self.params.gamma,
                "mu": self.params.mu,
            },
            "W": {
                "boxes": [
                    {"center": b.center.tolist(), "halfwidth": b.halfwidth.tolist()}
                    for b in self.W.boxes
                ]
            },
            "epsilon": self.epsilon.tolist(),
            "objective": self.objective,
            "l": self.horizon,
            "H": self.H.tolist(),
            "certificates": self.certificates,
            "history": list(self.history),
            "iterations": self.iterations,
            "termination": self.termination,
            "timing": self.timing,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ResultDoc":
        try:
            p = doc["params"]
            params = RpiParams(
                s=int(p["s"]),
                alpha=float(p["alpha"]),
                lam=float(p["lambda"]),
                gamma=float(p["gamma"]),
                mu=float(p["mu"]),
            )
            boxes = tuple(
                Box(np.asarray(b["center"], dtype=float), np.asarray(b["halfwidth"], dtype=float))
                for b in doc["W"]["boxes"]
            )
            return cls(
                params=params,
                W=BoxHullSet(boxes),
                epsilon=np.asarray(doc["epsilon"], dtype=float),
                objective=float(doc["objective"]),
                horizon=int(doc["l"]),
                H=np.asarray(doc["H"], dtype=float),
                certificates=dict(doc.get("certificates", {})),
                history=list(doc.get("history", [])),
                iterations=int(doc.get("iterations", 0)),
                termination=str(doc.get("termination", "")),
                timing=dict(doc.get("timing", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"bad result document: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_params(spec: ProblemSpec) -> dict:
    t0 = time.perf_counter()
    params = select_params(
        spec.sys, spec.Y, gamma=spec.options.gamma, mu=spec.options.mu, s_max=spec.options.s_max
    )
    elapsed = time.perf_counter() - t0
    cert = verifier.verify_params(spec.sys, spec.Y, params)
    return {
        "params": {
            "s": params.s,
            "alpha": params.alpha,
            "lambda": params.lam,
            "gamma": params.gamma,
            "mu": params.mu,
        },
        "margins": cert.as_dict(),
        "timing": {"params_s": elapsed},
    }


def cmd_synth(spec: ProblemSpec) -> ResultDoc:
    t0 = time.perf_counter()
    params = select_params(
        spec.sys, spec.Y, gamma=spec.options.gamma, mu=spec.options.mu, s_max=spec.options.s_max
    )
    t_params = time.perf_counter() - t0
    vertices = spec.resolve_vertices()
    horizon = spec.options.horizon if spec.options.horizon is not None else params.s
    H = spec.resolve_h()
    problem = encoder.assemble(spec.sys, spec.Y, vertices, params, spec.options.n_boxes, horizon, H)
    t0 = time.perf_counter()
    result = synthesizer.alternate(
        problem,
        synthesizer.spread_beta(problem.layout),
        zeta=spec.options.zeta,
        max_iters=spec.options.max_iters,
    )
    rng = np.random.default_rng(spec.options.seed)
    result = synthesizer.refine(
        problem,
        result,
        spec.options.restarts,
        rng,
        zeta=spec.options.zeta,
        max_iters=spec.options.max_iters,
    )
    t_synth = time.perf_counter() - t0
    t0 = time.perf_counter()
    certs = {}
    certs.update(verifier.verify_params(spec.sys, spec.Y, params).as_dict())
    certs.update(verifier.verify_gamma(spec.sys, result.W, params.gamma).as_dict())
    certs.update(verifier.verify_output_inclusion(spec.sys, spec.Y, params, result.W).as_dict())
    certs.update(
        verifier.verify_coverage(spec.sys, vertices, result.W, horizon, H, result.epsilon).as_dict()
    )
    t_verify = time.perf_counter() - t0
    return ResultDoc(
        params=params,
        W=result.W,
        epsilon=result.epsilon,
        objective=result.objective,
        horizon=horizon,
        H=H,
        certificates=certs,
        history=result.history,
        iterations=result.iterations,
        termination=result.termination,
        timing={"params_s": t_params, "synth_s": t_synth, "verify_s": t_verify},
    )


def cmd_verify(spec: ProblemSpec, doc: ResultDoc) -> verifier.Certificate:
    vertices = spec.resolve_vertices()
    checks = []
    checks += verifier.verify_params(spec.sys, spec.Y, doc.params).checks
    checks += verifier.verify_gamma(spec.sys, doc.W, doc.params.gamma).checks
    checks += verifier.verify_output_inclusion(spec.sys, spec.Y, doc.params, doc.W).checks
    checks += verifier.verify_coverage(
        spec.sys, vertices, doc.W, doc.horizon, doc.H, doc.epsilon
    ).checks
    return verifier.Certificate(tuple(checks))


def cmd_reduce(doc: dict) -> ProblemSpec:
    """Map a partitioned plant onto the standard problem.

    The accessible substate acts as the disturbance on the hidden one, so the
    hidden block A22 becomes the dynamics, the coupling A21 the input map,
    and the output mixes the hidden state (via C2) with the direct term C1.
    """
    if "system" not in doc or "constraints" not in doc:
        raise SpecError("document needs 'system' and 'constraints' sections")
    sd = doc["system"]
    for key in ("A11", "A12", "A21", "A22", "B1", "C1", "C2"):
        _matrix(sd, key, "partitioned system")
    A22 = _matrix(sd, "A22", "partitioned system")
    if spectral_radius(A22) >= 1.0:
        raise AssumptionError(
            f"hidden block A22 must be strictly stable (spectral radius {spectral_radius(A22):.6g})"
        )
    mapped = {
        "system": {
            "A": A22.tolist(),
            "B": _matrix(sd, "A21", "partitioned system").tolist(),
            "C": _matrix(sd, "C2", "partitioned system").tolist(),
            "D": _matrix(sd, "C1", "partitioned system").tolist(),
        },
        "constraints": doc["constraints"],
        "options": doc.get("options", {}),
    }
    return parse_spec(mapped)


def cmd_gen(n_x: int, n_w: int, n_y: int, rho_target: float, seed: int) -> ProblemSpec:
    """Random stable test system with a unit-box constraint set."""
    if not (0.0 < rho_target < 1.0):
        raise SpecError("rho must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_x, n_x))
    A = 0.5 * (A + A.T)
    A = A * (rho_target / spectral_radius(A))
    B = rng.standard_normal((n_x, n_w))
    C = rng.standard_normal((n_y, n_x))
    D = rng.standard_normal((n_y, n_w))
    Y = HPolytope(stacked_identity(n_y), np.ones(2 * n_y))
    options = Options(mu=1e-2, gamma=1.0, n_boxes=5, H="box", seed=seed)
    return ProblemSpec(LtiSystem(A, B, C, D), Y, None, options)


def _ring_sort(points: np.ndarray) -> np.ndarray:
    center = points.mean(axis=0)
    ang = np.arctan2(points[:, 1] - center[1], points[:, 0] - center[0])
    return points[np.argsort(ang)]


def reachable_outline(
    sys: LtiSystem, params: RpiParams, W: BoxHullSet, n_dirs: int = 360
) -> np.ndarray:
    """Boundary sample of the certified reachable-output bound (planar only).

    Each row is the exact support point of the bound in one of n_dirs
    directions, so the polygon they trace is inscribed in the bound.
    """
    if sys.n_y != 2:
        raise GeometryError("outline is defined for two outputs only")
    ang = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    P = np.column_stack([np.cos(ang), np.sin(ang)])

    def argmax_points(U):
        # row d: the point support_argmax_hull(I, U[d], W) returns, first maximum on ties
        j = np.argmax(U @ W.centers.T + np.abs(U) @ W.halfwidths.T, axis=1)
        return W.centers[j] + np.sign(U) * W.halfwidths[j]

    scale = 1.0 / (1.0 - params.alpha)
    pts = np.zeros((n_dirs, 2))
    CA = sys.C.copy()
    for _ in range(params.s):
        Q = P @ CA  # state-space directions
        drive = argmax_points(Q @ sys.B) @ sys.B.T + params.lam * np.sign(Q)
        pts += scale * (drive @ CA.T)
        CA = CA @ sys.A
    pts += argmax_points(P @ sys.D) @ sys.D.T
    return pts


def cmd_plot(doc: ResultDoc, spec: ProblemSpec, out_dir) -> list:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, points: np.ndarray):
        path = out_dir / name
        with open(path, "w") as fh:
            for row in np.atleast_2d(points):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        written.append(path)

    if spec.sys.n_w == 2:
        emit("w_set.csv", hull_outline(doc.W))
    if spec.sys.n_y == 2:
        emit("y_set.csv", _ring_sort(spec.resolve_vertices()))
        emit("reach_set.csv", reachable_outline(spec.sys, doc.params, doc.W))
        rng = np.random.default_rng(spec.options.seed)
        _, Yt, _ = simulate(spec.sys, doc.W, np.zeros(spec.sys.n_x), 2000, rng)
        emit("trajectory.csv", Yt)
    if not written:
        raise GeometryError("no planar panel to emit: need two inputs or two outputs")
    return written


# ---------------------------------------------------------------------------
# document IO and entry point


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _to_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _dump_json(doc: dict, path: str | None) -> None:
    text = json.dumps(_to_jsonable(doc), indent=2)
    if path is None:
        print(text)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text + "\n")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SpecError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed JSON in {path}: {exc}") from exc


def _apply_overrides(spec: ProblemSpec, args) -> ProblemSpec:
    opts = spec.options
    if args.mu is not None:
        opts.mu = args.mu
    if args.gamma is not None:
        opts.gamma = args.gamma
    if getattr(args, "N", None) is not None:
        opts.n_boxes = args.N
    if getattr(args, "l", None) is not None:
        opts.horizon = args.l
    if getattr(args, "H", None) is not None:
        if args.H in ("box",) or args.H.startswith("uniform:"):
            opts.H = args.H
        else:
            opts.H = _load_json(args.H)
    if getattr(args, "zeta", None) is not None:
        opts.zeta = args.zeta
    if getattr(args, "max_iters", None) is not None:
        opts.max_iters = args.max_iters
    if getattr(args, "restarts", None) is not None:
        opts.restarts = args.restarts
    if args.seed is not None:
        opts.seed = args.seed
    if getattr(args, "s_max", None) is not None:
        opts.s_max = args.s_max
    return spec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distsynth",
        description="Synthesize and certify disturbance sets for constrained LTI systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_synth=True):
        p.add_argument("spec", help="problem document (JSON)")
        p.add_argument("--mu", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--s-max", dest="s_max", type=int)
        if with_synth:
            p.add_argument("--N", type=int)
            p.add_argument("--l", type=int)
            p.add_argument("--H", help="box | uniform:k | path to a JSON row matrix")
            p.add_argument("--zeta", type=float)
            p.add_argument("--max-iters", dest="max_iters", type=int)
            p.add_argument("--restarts", type=int)
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
            frag = cmd_params(spec)
            _dump_json(frag, _out_path(args.out, "params.json"))
            p = frag["params"]
            print(
                f"s={p['s']} alpha={p['alpha']:.6e} lambda={p['lambda']:.6e}",
                file=_sys.stderr,
            )
            return 0
        if args.command == "synth":
            spec = _apply_overrides(parse_spec(_load_json(args.spec)), args)
            doc = cmd_synth(spec)
            _dump_json(doc.to_dict(), _out_path(args.out, "result.json"))
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
    except SynthesisError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        if exc.lp is not None:
            # the failing program, beside where result.json would have gone
            path = Path(_out_path(args.out, "result.json") or "result.json").parent / "failed_lp.lp"
            path.parent.mkdir(parents=True, exist_ok=True)
            write_lp(exc.lp, path)
            print(f"failing LP written to {path}", file=_sys.stderr)
        return 4
    except RuntimeError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 4
    return 0


def entry() -> None:
    raise SystemExit(main())
