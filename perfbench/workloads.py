"""The four benchmark workloads.

Each workload is closed-loop: one process runs its items back to back.
Items come in rounds; every round covers the workload's full cell list
once, so any run made of whole rounds has the same mix of cells. Problem
seeds and noise seeds of round r are derived from the workload seed with
``gradcert.substream_seed``, so the same seed gives the same inputs. A run
of S seconds does a fixed number of rounds (``Workload.rounds_for``), so the
same seed and S give the same items, and the same failed items, however
fast the machine runs.

Every item returns an ``Outcome``: whether the program's verdict was the
expected one, and the canonical bytes of its outputs, which feed the
per-item digest. The workloads reach gradcert only through attribute
lookups on its modules at call time (``gradcert.run(...)``), so the traced
run can swap in wrappers without the workloads knowing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gradcert
import gradcert.cli

# Grid items follow the acceptance grid: stop at 1e-10 of the initial gap,
# with caps that no run on these cells reaches.
GRID_STOP_REL = 1e-10
CG_CAP = 4_000
AG_CAP = 40_000
GRID_KAPPAS = (10.0, 1e3, 1e6)

# The criterion-10 instance of the acceptance tests.
NOISE_SPEC = dict(dim=100, ell=1.0, lip=1e4, layout="log_uniform", seed=0)
NOISE_ETAS = (0.0, 1e-8, 1e-4, 1e-2)
NOISE_ITERS = 600
DETECT_ETA = 1e-4

CLI_DIMS = (50, 200)
CLI_KAPPAS = (1e2, 1e4, 1e6)
CLI_AG_ITERS = 40_000
CLI_PERTURB_ETAS = "0,1e-4"
CLI_PERTURB_ITERS = 200
# The one documented defect: on clean dim-50 problems the identity battery's
# tolerance sits below CG's roundoff floor, so its worst residual sometimes
# lands just past it. In 300 rounds of the cli cells this happened 50 times
# at kappa=1e2 and once at kappa=1e6, never at dim 200, always below twice
# the tolerance. A residual more than KNOWN_FALSE_ALARM_MAX_OVER_TOL times the
# tolerance is not roundoff.
KNOWN_FALSE_ALARM_DIM = 50
KNOWN_FALSE_ALARM_MAX_OVER_TOL = 10.0
_IDENTITY_RESIDUAL = re.compile(r"worst identity residual (\S+) \(tol (\S+)\)")


@dataclass
class Outcome:
    """Result of one item.

    ok is False when the verdict differs from the expected one; known marks
    a failure of the one documented defect class (see ``known_false_alarm``).
    payload holds the canonical output bytes and files the paths of files
    the item wrote; both feed the digest, which is computed after the item's
    time is taken.
    """

    ok: bool
    payload: bytes
    note: str = ""
    files: list = field(default_factory=list)
    known: bool = False
    extra: dict = field(default_factory=dict)


def round_seed(seed: int, r: int) -> int:
    """32-bit problem or noise seed for round r of a workload seed."""
    return gradcert.substream_seed(seed, r) >> 32


def _pack(*values) -> bytes:
    return repr(values).encode()


def _floats(array) -> bytes:
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


class Workload:
    name = ""
    # Tail percentile reported when the run has enough items for it.
    tail_pct = 90.0
    # Nominal seconds per round: wall time of one round on the 2-vCPU
    # machine the benchmark was tuned on, rounded.
    round_s: float

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    @classmethod
    def rounds_for(cls, seconds: float) -> int:
        """Rounds in a run meant to last about seconds."""
        return max(1, round(seconds / cls.round_s))

    def cells(self) -> list:
        raise NotImplementedError

    def round(self, r: int) -> list:
        """[(item name, zero-argument callable returning Outcome)] for round r."""
        raise NotImplementedError

    def summary(self, outcomes: list) -> dict:
        """Workload-specific result figures over the outcomes of a run."""
        return {}

    def close(self) -> None:
        pass


class _Grid(Workload):
    dims: tuple = ()
    layouts = gradcert.LAYOUTS

    def cells(self):
        return [
            (dim, kappa, layout)
            for dim in self.dims
            for kappa in GRID_KAPPAS
            for layout in self.layouts
        ]

    def round(self, r):
        pseed = round_seed(self.seed, r)
        return [
            (f"{self.name}/dim={dim}/kappa={kappa:g}/{layout}/seed={pseed}",
             lambda dim=dim, kappa=kappa, layout=layout: self._item(dim, kappa, layout, pseed))
            for dim, kappa, layout in self.cells()
        ]

    def _item(self, dim, kappa, layout, pseed) -> Outcome:
        spec = gradcert.SpectrumSpec(dim=dim, ell=1.0, lip=kappa, layout=layout, seed=pseed)
        obj, _truth, x0 = gradcert.generate_with_start(spec)
        stop = GRID_STOP_REL * obj.f_gap(x0)
        ok = True
        notes = []
        parts = []
        steps = {}
        for method, cap in (("cg_classic", CG_CAP), ("ag", AG_CAP)):
            trace = gradcert.run(obj, method, x0, cap, stop, record_transients=False)
            report = gradcert.certify(trace, obj)
            steps[method] = len(trace) - 1
            if not report.all_ok:
                ok = False
                notes.append(f"{method} certificate fails (first_violation={report.first_violation})")
            if trace.stop_reason != "gap":
                ok = False
                notes.append(f"{method} stopped on {trace.stop_reason}")
            parts.append(_pack(method, trace.stop_reason, len(trace), report.first_violation))
            parts.append(_floats(report.psis))
        return Outcome(ok, b"".join(parts), "; ".join(notes), extra={"steps": steps})


class GridSmall(_Grid):
    name = "grid_small"
    dims = (10, 50)
    tail_pct = 95.0
    round_s = 0.7


class GridLarge(_Grid):
    name = "grid_large"
    dims = (200,)
    tail_pct = 75.0
    round_s = 2.2


class NoiseSweep(Workload):
    name = "noise_sweep"
    tail_pct = 90.0
    round_s = 0.33

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        spec = gradcert.SpectrumSpec(**NOISE_SPEC)
        self.obj, self.truth, self.x0 = gradcert.generate_with_start(spec)

    def cells(self):
        return list(NOISE_ETAS)

    def round(self, r):
        nseed = round_seed(self.seed, r)
        return [
            (f"{self.name}/eta={eta:g}/noise_seed={nseed}",
             lambda eta=eta: self._item(eta, nseed))
            for eta in NOISE_ETAS
        ]

    def _item(self, eta, nseed) -> Outcome:
        noise = gradcert.NoiseModel(magnitude=eta, seed=nseed)
        rep = gradcert.detect_inexactness(self.obj, self.truth, noise, NOISE_ITERS, x0=self.x0)
        ok = eta > 0.0 or rep.first_violation is None
        note = "" if ok else f"eta=0 flagged at step {rep.first_violation}"
        payload = _pack(eta, nseed, rep.first_violation, rep.iterations_run, rep.stop_reason)
        extra = {
            "eta": eta,
            "first_violation": rep.first_violation,
            "iterations": rep.iterations_run,
            "stop_reason": rep.stop_reason,
        }
        return Outcome(ok, payload + _floats(rep.psis), note, extra=extra)

    def summary(self, outcomes):
        noisy = [o.extra for o in outcomes if o.extra["eta"] > 0.0]
        # An undetected run counts as flagging one step past the end of the
        # run, so a detector that fires later or never reads as worse.
        steps = [
            float(NOISE_ITERS + 1 if o.extra["first_violation"] is None else o.extra["first_violation"])
            for o in outcomes if o.extra["eta"] == DETECT_ETA
        ]
        return {
            "detect_frac": sum(e["first_violation"] is not None for e in noisy) / len(noisy),
            "detect_runs": len(noisy),
            "detect_steps_p50": statistics.median(steps),
            "detect_steps_runs": len(steps),
        }


class CliPipeline(Workload):
    name = "cli_pipeline"
    tail_pct = 90.0
    round_s = 3.3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.dir = workdir / "cli"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def cells(self):
        return [(dim, kappa) for dim in CLI_DIMS for kappa in CLI_KAPPAS]

    def round(self, r):
        pseed = round_seed(self.seed, r)
        nseed = round_seed(self.seed ^ 0xC11, r)
        items = []
        for c, (dim, kappa) in enumerate(self.cells()):
            stem = str(self.dir / f"c{c}")
            prob, t_cg, t_ag = f"{stem}.json", f"{stem}_cg.csv", f"{stem}_ag.csv"
            cell = f"{self.name}/dim={dim}/kappa={kappa:g}/log_uniform/seed={pseed}"
            commands = [
                ("gen", ["gen", "--dim", str(dim), "--ell", "1", "--lip", f"{kappa:g}",
                         "--layout", "log_uniform", "--seed", str(pseed), "--out", prob], [prob]),
                ("run-cg", ["run", "--problem", prob, "--method", "cg", "--out", t_cg], [t_cg]),
                ("certify-cg", ["certify", t_cg, "--problem", prob, "--out", f"{stem}_cert_cg.json"],
                 [f"{stem}_cert_cg.json"]),
                ("run-ag", ["run", "--problem", prob, "--method", "ag",
                            "--iters", str(CLI_AG_ITERS), "--out", t_ag], [t_ag]),
                ("certify-ag", ["certify", t_ag, "--problem", prob, "--out", f"{stem}_cert_ag.json"],
                 [f"{stem}_cert_ag.json"]),
                ("identities", ["identities", "--problem", prob, "--out", f"{stem}_id.json"],
                 [f"{stem}_id.json"]),
                ("perturb", ["perturb", "--problem", prob, "--eta", CLI_PERTURB_ETAS,
                             "--iters", str(CLI_PERTURB_ITERS), "--seed", str(nseed),
                             "--out", f"{stem}_perturb.json"], [f"{stem}_perturb.json"]),
            ]
            for label, argv, outputs in commands:
                items.append((f"{cell}/{label}",
                              lambda argv=argv, outputs=outputs, cell=(dim, kappa):
                              self._item(argv, outputs, cell)))
        return items

    def _item(self, argv, outputs, cell) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gradcert.cli.main(argv)
        payload = _pack(argv[0], code) + out.getvalue().encode() + err.getvalue().encode()
        ok = code == 0
        known = not ok and known_false_alarm(argv[0], cell, code, out.getvalue())
        text = " | ".join((out.getvalue() + err.getvalue()).strip().splitlines())
        note = "" if ok else f"exit {code}: {text[-200:]}"
        return Outcome(ok, payload, note, files=list(outputs), known=known)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def known_false_alarm(command: str, cell: tuple, code: int, stdout: str) -> bool:
    """Whether a failed cli item is the documented defect and nothing else.

    Only ``identities`` on a dim-50 cell that exits 1 with a violation
    report whose worst residual lies past the tolerance by at most
    KNOWN_FALSE_ALARM_MAX_OVER_TOL qualifies; any other failure makes the
    run incorrect.
    """
    if (command != "identities" or cell[0] != KNOWN_FALSE_ALARM_DIM or code != 1
            or "identity violation detected" not in stdout):
        return False
    match = _IDENTITY_RESIDUAL.search(stdout)
    if match is None:
        return False
    worst, tol = float(match[1]), float(match[2])
    return tol < worst <= KNOWN_FALSE_ALARM_MAX_OVER_TOL * tol


WORKLOADS = {w.name: w for w in (GridSmall, GridLarge, NoiseSweep, CliPipeline)}


def item_digest(outcome: Outcome) -> str:
    h = hashlib.sha256(outcome.payload)
    for path in outcome.files:
        p = Path(path)
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


def run_digest(item_digests: list) -> str:
    h = hashlib.sha256()
    for d in item_digests:
        h.update(bytes.fromhex(d))
    return h.hexdigest()
