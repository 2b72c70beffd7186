"""Quantitative curvature-bound estimates from the pass/fail criteria.

One configuration set is sampled per estimate (fixed by the seed) and reused
across every tested k, so the per-sample defects inherit the comparison-angle
monotonicity in k and bisection over k is sound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from cmpk import criteria, vector
from cmpk.config import DEFAULT_TOL, Tolerances
from cmpk.errors import (
    BracketExpansionError,
    CmpkError,
    DegenerateConfigError,
    FootOnBoundary,
    LadderError,
    ModelDomainError,
    RightAngleUnavailable,
)
from cmpk.spaces import GeodesicSpace

DEFAULT_K_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class CurvatureEstimate:
    space: dict
    center: list
    radius: float
    criteria: tuple[str, ...]
    n_samples: int
    seed: int
    resolution: float
    k_cbb: float | None
    k_cba: float | None
    cbb_residual: float | None  # worst oriented lower-bound defect at k_cbb
    cba_residual: float | None
    cbb_note: str = ""
    cba_note: str = ""
    skipped: int = 0  # drawn samples left out under SKIPPED_SAMPLE; n_samples were measured
    # {"criterion": name, "sample": index among the measured samples} of the first
    # sample whose defect is the residual; None when the residual is None
    cbb_witness: dict | None = None
    cba_witness: dict | None = None
    # the skipped samples by exception type name, and the tries the sampler
    # rejected before it accepted the drawn samples, by reason (criteria.REJECTIONS)
    skipped_by: dict = field(default_factory=dict)
    rejected: dict = field(default_factory=dict)


class Criterion(NamedTuple):
    """A criterion of `cmpk test`: draw one configuration and measure it once.

    A verdict criterion evaluates the measurement at any k; a check, which
    has no `evaluate`, reports it as it is (`report`).
    """

    # (space, center, radius, rng, rejected) -> configuration, or None for a
    # foot configuration, which `criteria.foot_configs` draws; `rejected`
    # counts the tries the draw rejects by reason (criteria.REJECTIONS)
    sample: Callable | None
    # (space, configuration, columns=None) -> measurement, from the
    # configuration's column values where given
    measure: Callable
    # criteria.evaluate_*(measurement, k, *, tol_cfg) -> TestOutcome; None for a check
    evaluate: Callable | None = None
    batch: Callable | None = None  # (measurements, tol_cfg) -> vector.Batch, for bisection
    # (space, configurations) -> the column values of each configuration over
    # arrays, None where it is measured one at a time
    columns: Callable | None = None
    # the columns of a `cmpk test` row after "sample", and for a check,
    # measurement -> (the row's cells, its defects)
    header: tuple[str, ...] = ("k", "scale", "cbb_defect", "cba_defect", "tolerance", "verdict")
    report: Callable | None = None


def _right_angle_config(space, center, radius, rng, rejected):
    return criteria.sample_right_angle_config(space, center, radius, rng, rejected=rejected)


def _first_variation(space, c, columns=None):
    """`first_variation_check` at the foot, with steps of 1e-2, 1e-3 and 1e-4
    of the segment, the foot moved back where the largest would pass its end."""
    q, seg, foot = c
    h_max = 1e-2 * seg.length
    return criteria.first_variation_check(space, q, seg, min(foot.t_star, seg.length - h_max * 1.5),
                                          (h_max, h_max * 0.1, h_max * 0.01))


# Keyed by the names measurements and outcomes carry; the command line spells
# them with '-'.  Foot-drawn criteria can share one configuration per sample;
# those with a `batch` are what `estimate` bisects over.
CRITERIA: dict[str, Criterion] = {
    "pythagorean": Criterion(
        None,
        lambda space, c, columns=None: criteria.measure_pythagorean(
            space, c[0], c[1], foot=c[2], columns=columns),
        criteria.evaluate_pythagorean,
        vector.PythagoreanBatch,
        lambda space, cs: criteria.pythagorean_columns(space, cs),
    ),
    "point_segment": Criterion(
        None,
        lambda space, c, columns=None: criteria.measure_point_segment(
            space, c[0], c[1], columns=columns),
        criteria.evaluate_point_segment,
        vector.PointSegmentBatch,
        lambda space, cs: criteria.point_segment_columns(space, cs),
    ),
    "triangle": Criterion(
        None,
        lambda space, c, columns=None: criteria.measure_triangle(
            space, c[1].start, c[0], c[1].end, columns=columns),
        criteria.evaluate_triangle,
        vector.TriangleBatch,
        lambda space, cs: criteria.triangle_columns(space, cs),
    ),
    "right_angle": Criterion(
        _right_angle_config,
        lambda space, cfg, columns=None: cfg,
        criteria.evaluate_right_angle,
    ),
    "first_variation": Criterion(
        None, _first_variation,
        header=("t_star", "angle", "target", "h", "slope", "error"),
        report=lambda r: ((r.t_star, r.angle, r.target, r.steps[-1], r.slopes[-1], r.errors[-1]),
                          (r.errors[-1],)),
    ),
    "angle_sum": Criterion(
        None,
        lambda space, c, columns=None: criteria.angle_sum_check(space, c[0], c[1], c[2].t_star),
        header=("t_interior", "angle_r1", "angle_r2", "total", "excess"),
        report=lambda r: ((r.t_interior, r.angle_r1, r.angle_r2, r.total, r.excess),
                          (r.excess,)),
    ),
}
ESTIMATE_CRITERIA = tuple(n for n, c in CRITERIA.items() if c.batch is not None)

# A sample whose draw or measurement raises one of these is left out and
# counted as skipped, by `cmpk test` and `estimate` alike; any other error
# ends the run.
SKIPPED_SAMPLE = (RightAngleUnavailable, FootOnBoundary, DegenerateConfigError, LadderError)

# Every evaluation goes through this dict of plain functions, never through a
# Criterion, and the samplers and measurements above look their `criteria`
# function up at each call, so wrapping module attributes and dict values
# (as a tracer does) reaches every call.
_EVALUATORS: dict[str, Callable] = {
    name: c.evaluate for name, c in CRITERIA.items() if c.evaluate is not None}


def _normalize_criteria(names: Sequence[str]) -> tuple[str, ...]:
    out = []
    for name in names:
        canon = name.replace("-", "_")
        if canon not in CRITERIA:
            raise ValueError(f"unknown criterion {name!r}; choose from {tuple(CRITERIA)}")
        if canon in out:
            raise ValueError(f"criterion {name!r} is named more than once")
        out.append(canon)
    if len(out) > 1 and any(CRITERIA[name].batch is None for name in out):
        raise ValueError(f"criteria {tuple(out)} include one that is measured alone;"
                         f" measure together only {ESTIMATE_CRITERIA}")
    return tuple(out)


class Measurements(dict):
    """Measurement lists by criterion name, with the counts of what was left out.

    ``index`` holds each measured sample's index among the drawn samples,
    ``skipped_by`` counts the skipped samples by exception type name,
    ``rejected`` the sampler's rejected tries by reason.
    """

    def __init__(self, lists: dict[str, list]):
        super().__init__(lists)
        self.index: list[int] = []
        self.skipped_by: dict[str, int] = {}
        self.rejected: dict[str, int] = dict.fromkeys(criteria.REJECTIONS, 0)

    def skip(self, error: Exception) -> None:
        kind = type(error).__name__
        self.skipped_by[kind] = self.skipped_by.get(kind, 0) + 1


# Configurations measured together: a larger batch costs fewer array passes
# but holds more configurations and columns in memory at once
COLUMN_BATCH = 100


def sample_measurements(
    space: GeodesicSpace, center, radius: float, names: Sequence[str],
    n_samples: int, seed: int | Sequence[int],
) -> Measurements:
    """Draw n_samples configurations from the seed's generator and measure
    each once for the named criteria.

    Foot configurations are those `criteria.foot_configs` yields, which
    draws them in rounds, shared by every named criterion.  A criterion with
    its own `sample` (right-angle configurations) is measured alone and draws
    one configuration at a time; a draw that raises one of SKIPPED_SAMPLE is
    a skipped sample.  A sample that raises one of SKIPPED_SAMPLE for any
    criterion is left out of every list, so the lists stay aligned and hold
    n_samples minus the skipped samples each, and ``index`` holds each
    measured sample's index among the n_samples drawn.

    Configurations are drawn in batches of COLUMN_BATCH, each measured once
    it is drawn: each criterion's probes of the batch are computed once over
    arrays (its `columns`), and each sample is then measured by one call of
    its `measure`, from its column values or, where it has none, by the
    scalar probes.  An error of the draw is raised after the samples drawn
    before it are measured, so the first error is the one measuring each
    sample as it is drawn meets.
    """
    names = _normalize_criteria(names)
    rng = np.random.default_rng(seed)
    out = Measurements({name: [] for name in names})
    draw = CRITERIA[names[0]].sample
    if draw is None:
        configs = enumerate(criteria.foot_configs(space, center, radius, rng, n_samples,
                                                  rejected=out.rejected))
    else:
        configs = _one_at_a_time(draw, space, center, radius, rng, n_samples, out)
    while True:
        drawn, draw_error = [], None
        try:
            for item in itertools.islice(configs, COLUMN_BATCH):
                drawn.append(item)
        except Exception as e:  # raised once the configurations before it are measured
            draw_error = e
        columns = [_columns(name, space, [config for _, config in drawn]) for name in names]
        for (i, config), cols in zip(drawn, zip(*columns)):
            try:
                sample = [CRITERIA[name].measure(space, config, c)
                          for name, c in zip(names, cols)]
            except SKIPPED_SAMPLE as e:
                out.skip(e)
                continue
            out.index.append(i)
            for ms, m in zip(out.values(), sample):
                ms.append(m)
        if draw_error is not None:
            raise draw_error
        if len(drawn) < COLUMN_BATCH:
            return out


def _one_at_a_time(draw: Callable, space: GeodesicSpace, center, radius: float,
                   rng: np.random.Generator, n: int, out: Measurements):
    """(index, configuration) of each of n draws that raises none of
    SKIPPED_SAMPLE; out counts the others as skipped."""
    for i in range(n):
        try:
            config = draw(space, center, radius, rng, out.rejected)
        except SKIPPED_SAMPLE as e:
            out.skip(e)
            continue
        yield i, config


def _columns(name: str, space: GeodesicSpace, configs: list) -> list:
    """The named criterion's column values of each configuration, None where
    it is measured one at a time: everywhere when the arrays raise, since they
    may meet another configuration's error first."""
    columns = CRITERIA[name].columns
    if columns is not None and configs:
        try:
            return columns(space, configs)
        except (ArithmeticError, ValueError, CmpkError):
            pass
    return [None] * len(configs)


def evaluate_measurement(name: str, measurement, k: float, *,
                         tol_cfg: Tolerances = DEFAULT_TOL) -> criteria.TestOutcome:
    """Evaluate one stored measurement of the named criterion at curvature k."""
    return _EVALUATORS[name.replace("-", "_")](measurement, k, tol_cfg=tol_cfg)


# A vector margin (defect - tolerance) below -MARGIN_GUARD is a sure pass.  The
# vector and scalar defects differ by rounding noise, orders of magnitude less.
MARGIN_GUARD = 1e-9
# The residual pass evaluates a decided sample only when its vector defect is
# within RESIDUAL_BAND of the largest one: twice the 1e-11 vector/scalar
# agreement the property tests assert, so the sample whose scalar defect is the
# residual is always among them.
RESIDUAL_BAND = 2e-11


def batch_measurements(measurements: dict[str, list], tol_cfg: Tolerances) -> dict:
    """Each criterion's measurements as a `vector.Batch`, or None where it has none."""
    out = {}
    for name, ms in measurements.items():
        batch = CRITERIA[name].batch
        out[name] = None if batch is None else batch(ms, tol_cfg)
    return out


def _scalar_fail(ev: Callable, ms: list, indices, k: float, orientation: str,
                 tol_cfg: Tolerances) -> bool:
    """True at the first of ms[indices], in order, that fails the claim or is inadmissible."""
    for i in indices:
        try:
            if not ev(ms[i], k, tol_cfg=tol_cfg).passes(orientation):
                return True
        except ModelDomainError:
            return True
    return False


def _orientation_pass(measurements: dict[str, list], k: float, orientation: str,
                      tol_cfg: Tolerances, batches: dict | None = None) -> bool:
    """True when every sample passes the claim at k; inadmissible counts as fail.

    The vector margins mark the samples that surely pass.  The scalar evaluator
    walks the others in order and stops at the first failure, so the decision,
    and any error other than ModelDomainError, are the scalar walk's.  A
    passing probe confirms, per criterion, the sure pass with the largest
    margin through the scalar evaluator; should one ever disagree, the whole
    claim is decided by the scalar walk over every sample.
    """
    if batches is None:
        batches = batch_measurements(measurements, tol_cfg)
    confirm = []
    for name, ms in measurements.items():
        ev, batch = _EVALUATORS[name], batches.get(name)
        margin = batch.margins(k, orientation) if batch is not None else np.full(len(ms), np.nan)
        sure = margin < -MARGIN_GUARD
        if _scalar_fail(ev, ms, np.flatnonzero(~sure), k, orientation, tol_cfg):
            return False
        if sure.any():
            confirm.append((ev, ms, [int(np.argmax(np.where(sure, margin, -np.inf)))]))
    if any(_scalar_fail(ev, ms, i, k, orientation, tol_cfg) for ev, ms, i in confirm):
        return not any(_scalar_fail(_EVALUATORS[name], ms, range(len(ms)), k, orientation, tol_cfg)
                       for name, ms in measurements.items())
    return True


def _worst_defect(measurements: dict[str, list], k: float, tol_cfg: Tolerances,
                  batches: dict | None = None):
    """Largest cbb and cba defects at k over every sample.

    Returns ((cbb residual, cbb witness), (cba residual, cba witness)); a
    witness names the first sample, in evaluation order, whose defect is the
    residual.  The scalar evaluator walks, in evaluation order, only the
    undecided samples and those whose vector defect of either orientation is
    within RESIDUAL_BAND of that orientation's largest.  Only undecided
    samples can raise, so residuals, witnesses and errors are those of one
    scalar pass over every sample.  Should a walked sample's scalar defect
    stray more than RESIDUAL_BAND / 2 from its vector defect, that full pass
    decides.
    """
    if batches is None:
        batches = batch_measurements(measurements, tol_cfg)
    vectors = {}
    for name, ms in measurements.items():
        batch, nan = batches.get(name), np.full(len(ms), np.nan)
        vectors[name] = batch.defects(k) if batch is not None else (nan, nan)
    top_cbb, top_cba = (max(np.fmax.reduce(v[o], initial=-np.inf) for v in vectors.values())
                        for o in (0, 1))
    walk = {name: np.flatnonzero(np.isnan(cbb) | (cbb >= top_cbb - RESIDUAL_BAND)
                                 | (cba >= top_cba - RESIDUAL_BAND))
            for name, (cbb, cba) in vectors.items()}
    worst = _scalar_worst(measurements, k, tol_cfg, walk, vectors)
    return worst if worst is not None else _scalar_worst(measurements, k, tol_cfg)


def _scalar_worst(measurements: dict[str, list], k: float, tol_cfg: Tolerances,
                  walk: dict | None = None, vectors: dict | None = None):
    """`_worst_defect` over ms[walk[name]], or over every sample when walk is None.

    Returns None at the first walked sample whose scalar defect is more than
    RESIDUAL_BAND / 2 from its vector defect in `vectors`.
    """
    worst = [(-math.inf, None), (-math.inf, None)]
    for name, ms in measurements.items():
        ev = _EVALUATORS[name]
        for i in range(len(ms)) if walk is None else walk[name]:
            out = ev(ms[i], k, tol_cfg=tol_cfg)
            for o, defect in enumerate((out.cbb_defect, out.cba_defect)):
                if vectors is not None and abs(defect - vectors[name][o][i]) > RESIDUAL_BAND / 2:
                    return None
                if defect > worst[o][0]:
                    worst[o] = (defect, {"criterion": name, "sample": int(i)})
    return tuple(worst)


# A bracket end is searched no further out than |k| = EXPANSION_LIMIT.
EXPANSION_LIMIT = 1024.0


def _expand(passes: Callable[[float], bool], k0: float, step0: float, want: bool) -> float:
    """Walk k by doubling steps until passes(k) == want; raise past EXPANSION_LIMIT."""
    k, step = k0, step0
    while passes(k) != want:
        k += step
        step *= 2.0
        if abs(k) > EXPANSION_LIMIT:
            raise BracketExpansionError(
                f"no {'pass' if want else 'fail'} endpoint found within |k| <= {EXPANSION_LIMIT}"
            )
    return k


def _bisect(passes: Callable[[float], bool], k_pass: float, k_fail: float,
            resolution: float) -> tuple[float, float]:
    """Halve [k_pass, k_fail] until it is within resolution, or until the two
    ends are adjacent floats, with no midpoint between them."""
    while abs(k_fail - k_pass) > resolution:
        mid = 0.5 * (k_pass + k_fail)
        if mid == k_pass or mid == k_fail:
            break
        if passes(mid):
            k_pass = mid
        else:
            k_fail = mid
    return k_pass, k_fail


def check_bracket(k_bracket: tuple[float, float], resolution: float) -> None:
    """ValueError unless a bisection over k from k_bracket to resolution can
    stop: both ends finite, k_lo < k_hi, and the resolution finite and > 0."""
    k_lo, k_hi = k_bracket
    if not (math.isfinite(k_lo) and math.isfinite(k_hi)):
        # bisection toward an infinite endpoint never stops
        raise ValueError(f"k_bracket must be finite, got {k_lo}, {k_hi}")
    if not k_lo < k_hi:
        raise ValueError("k_bracket must satisfy k_lo < k_hi")
    if not (math.isfinite(resolution) and resolution > 0.0):
        # bisection to a zero resolution never stops
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")


def estimate_bounds(
    space: GeodesicSpace, center, radius: float, measurements: Measurements, *,
    seed: int, k_bracket: tuple[float, float] = (-2.0, 2.0),
    resolution: float = 0.01, tol_cfg: Tolerances = DEFAULT_TOL,
) -> CurvatureEstimate:
    """Largest lower bound and smallest upper bound passing on a fixed sample set.

    ``measurements`` comes from `sample_measurements` (drawn with ``seed``,
    which the estimate records, as it records the counts of skipped samples
    and rejected tries the measurements hold).  ``k_cbb`` is the largest k
    whose lower-bound claim passes every sample (bisection to `resolution`),
    ``k_cba`` the smallest passing upper bound; either is None with a note
    when bracket expansion passes EXPANSION_LIMIT (e.g. no lower curvature
    bound at a branch point) or when no sample was measured.
    """
    names = tuple(measurements)
    if not names:
        raise ValueError("no criterion measurements to bisect over")
    skipped = sum(measurements.skipped_by.values())
    counts = {"skipped_by": dict(measurements.skipped_by),
              "rejected": dict(measurements.rejected)}
    check_bracket(k_bracket, resolution)
    k_lo, k_hi = k_bracket
    if not measurements[names[0]]:
        # every claim would pass vacuously: there is no bound to bisect for
        note = f"no measured samples to bisect over ({skipped} skipped)"
        return CurvatureEstimate(
            space.descriptor(), space.point_to_data(center), radius, names, 0, seed,
            resolution, None, None, None, None, note, note, skipped, **counts,
        )
    batches = batch_measurements(measurements, tol_cfg)
    bounds, worst, worst_at = [], None, None
    # the lower-bound claim holds for all k below a threshold, the upper-bound
    # claim for all k above one: each end is expanded away from the other
    for o, (claim, k_pass, k_fail) in enumerate((("cbb", k_lo, k_hi), ("cba", k_hi, k_lo))):
        def passes(k: float, claim=claim) -> bool:
            return _orientation_pass(measurements, k, claim, tol_cfg, batches)

        away = k_pass - k_fail
        try:
            k_pass = _expand(passes, k_pass, away, True)
            k_fail = _expand(passes, k_fail, -away, False)
        except BracketExpansionError as e:
            bounds.append((None, None, None, str(e)))
            continue
        k, _ = _bisect(passes, k_pass, k_fail, resolution)
        if worst is None or k != worst_at:  # the pass at k_cbb has both residuals
            worst, worst_at = _worst_defect(measurements, k, tol_cfg, batches), k
        bounds.append((k, *worst[o], ""))
    (k_cbb, cbb_residual, cbb_witness, cbb_note), (k_cba, cba_residual, cba_witness, cba_note) = \
        bounds

    return CurvatureEstimate(
        space.descriptor(), space.point_to_data(center), radius, names,
        len(measurements[names[0]]), seed, resolution, k_cbb, k_cba,
        cbb_residual, cba_residual, cbb_note, cba_note, skipped, cbb_witness, cba_witness,
        **counts,
    )


def region_report(
    space: GeodesicSpace, centers: Sequence, radius: float, *, n_samples: int = 120,
    seed: int = 0, eps_ladder: Sequence[float] | None = None,
    n_per_eps: int = 128, tol_cfg: Tolerances = DEFAULT_TOL,
) -> list[dict]:
    """Per-center Pythagorean bound estimates and Riemannian-point profiles.

    Rows on a mesh are marked diagnostic_only.  Per-center failures are
    recorded in the row and the run continues.
    """
    if eps_ladder is None:
        eps_ladder = tuple(radius * f for f in (1.0, 0.5, 0.25, 0.125))
    rows = []
    for idx, center in enumerate(centers):
        row: dict = {"index": idx, "center": space.point_to_data(center)}
        if space.name == "mesh":
            row["diagnostic_only"] = True
        try:
            ms = sample_measurements(space, center, radius, ("pythagorean",), n_samples, seed)
            row["estimate"] = asdict(estimate_bounds(space, center, radius, ms, seed=seed,
                                                     tol_cfg=tol_cfg))
        except (CmpkError, ValueError) as e:
            row["estimate_error"] = f"{type(e).__name__}: {e}"
        try:
            prof = criteria.riemannian_point_profile(space, center, eps_ladder, n_per_eps, seed)
            row["profile"] = asdict(prof)
        except (CmpkError, ValueError) as e:
            row["profile_error"] = f"{type(e).__name__}: {e}"
        rows.append(row)
    return rows
