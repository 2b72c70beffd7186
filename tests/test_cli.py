"""CLI: output formats, exit codes, report schema, determinism."""

import json
import warnings

import numpy as np
import pytest

from cmpk import cli, criteria, estimator, spaces
from cmpk.errors import ModelDomainError

from meshgen import icosphere, octahedron, write_obj

SPHERE = '{"type":"sphere","k":1.0}'
PLANE = '{"type":"plane"}'
TRIPOD = '{"type":"tripod"}'
CONE = '{"type":"cone","perimeter":3.141592653589793}'


def run(argv):
    return cli.main(argv)


def read_summary(out_dir, name):
    with open(out_dir / f"{name}_summary.json") as fh:
        payload = json.load(fh)
    cli.validate_report(payload)
    return payload


# ---------------------------------------------------------------------------
# model


def test_model_angle_output(capsys):
    assert run(["model", "angle", "--k", "0", "--sides", "3,4,5"]) == 0
    assert capsys.readouterr().out.strip() == "1.5707963268  defect=0"


def test_model_side_output(capsys):
    assert run(["model", "side", "--k", "1", "--legs",
                "1.5707963268,1.5707963268", "--gamma", "0.7"]) == 0
    assert capsys.readouterr().out.strip() == "0.7"


def test_model_angle_domain_error_exit_2(capsys):
    assert run(["model", "angle", "--k", "1", "--sides", "3,3,3"]) == 2
    assert "perimeter" in capsys.readouterr().err


def test_model_angle_bad_sides_exit_2():
    assert run(["model", "angle", "--k", "0", "--sides", "3,4"]) == 2


# ---------------------------------------------------------------------------
# test command


def test_pythagorean_sphere_at_zero(tmp_path):
    assert run([
        "test", "--space", SPHERE, "--criterion", "pythagorean", "--k", "0",
        "--samples", "30", "--seed", "1", "--out", str(tmp_path),
    ]) == 0
    payload = read_summary(tmp_path, "test")
    assert payload["results"]["fail_count"] == 0
    assert payload["results"]["min_defect"] < 0.0
    header = (tmp_path / "test_rows.csv").read_text().splitlines()[0]
    assert header.startswith("sample,k,scale,cbb_defect")


def test_right_angle_tripod_mostly_skipped(tmp_path):
    assert run([
        "test", "--space", TRIPOD, "--criterion", "right-angle",
        "--region", "center=[0,0.0],radius=0.5",
        "--samples", "10", "--seed", "1", "--out", str(tmp_path),
    ]) == 0
    payload = read_summary(tmp_path, "test")
    assert payload["results"]["skipped"] > payload["results"]["rows"]
    # the tripod cannot shoot, so each draw falls back to a foot configuration
    assert sum(payload["results"]["rejected"].values()) > 0


def test_triangle_plane_all_pass_both(tmp_path):
    assert run([
        "test", "--space", PLANE, "--criterion", "triangle", "--k", "0",
        "--samples", "15", "--seed", "2", "--out", str(tmp_path),
    ]) == 0
    payload = read_summary(tmp_path, "test")
    assert payload["results"]["verdicts"] == {"pass_both": 15}


def test_k_grid_multiplies_rows(tmp_path):
    assert run([
        "test", "--space", PLANE, "--criterion", "pythagorean",
        "--k-grid=-1,0,1", "--samples", "4", "--seed", "3",
        "--out", str(tmp_path),
    ]) == 0
    rows = (tmp_path / "test_rows.csv").read_text().splitlines()
    assert len(rows) == 1 + 4 * 3


def test_inadmissible_k_gets_its_own_rows(tmp_path):
    base = ["test", "--space", SPHERE, "--criterion", "pythagorean",
            "--samples", "3", "--seed", "1"]
    assert run([*base, "--k-grid", "0,200", "--out", str(tmp_path / "grid")]) == 0
    assert run([*base, "--k", "0", "--out", str(tmp_path / "zero")]) == 0
    grid = (tmp_path / "grid" / "test_rows.csv").read_text().splitlines()
    zero = (tmp_path / "zero" / "test_rows.csv").read_text().splitlines()
    rows = [line.split(",") for line in grid[1:]]
    # the k = 0 rows are what a run at k = 0 alone writes
    assert [line for line in grid[1:] if line.split(",")[1] == "0.0"] == zero[1:]
    inadmissible = [r for r in rows if r[6] == "inadmissible"]
    assert inadmissible and all(r[1] == "200.0" and r[3:6] == ["", "", ""] for r in inadmissible)
    results = read_summary(tmp_path / "grid", "test")["results"]
    assert results["rows"] == len(rows) == 6 and results["skipped"] == 0
    assert results["verdicts"]["inadmissible"] == len(inadmissible)
    assert sum(results["verdicts"].values()) == len(rows)
    defects = [float(x) for r in rows if r[6] != "inadmissible" for x in r[3:5]]
    assert (results["min_defect"], results["max_defect"]) == (min(defects), max(defects))


def test_negative_comma_lists_take_the_documented_equals_form(tmp_path, capsys):
    for command, form in (("test", "--k-grid=-1,0,1"), ("estimate", "--bracket=-3,3")):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        assert form in " ".join(capsys.readouterr().out.split())
    assert run([
        "test", "--space", PLANE, "--criterion", "pythagorean", "--k-grid=-1,0,1",
        "--samples", "2", "--seed", "3", "--out", str(tmp_path / "test"),
    ]) == 0
    assert read_summary(tmp_path / "test", "test")["config"]["k"] == [-1.0, 0.0, 1.0]
    assert run([
        "estimate", "--space", PLANE, "--bracket=-3,3", "--samples", "20", "--seed", "3",
        "--out", str(tmp_path / "estimate"),
    ]) == 0
    assert read_summary(tmp_path / "estimate", "estimate")["config"]["bracket"] == [-3.0, 3.0]
    # without the '=' argparse reads the negative list as an option
    with pytest.raises(SystemExit):
        run(["estimate", "--space", PLANE, "--bracket", "-3,3", "--out", str(tmp_path)])


@pytest.mark.parametrize("space, criterion, region", [
    (SPHERE, "pythagorean", []),
    (SPHERE, "triangle", []),
    # near the apex some right-angle draws are unavailable and skipped
    (CONE, "right-angle", ["--region", "center=[0.0,0.0],radius=0.5"]),
], ids=["sphere-pythagorean", "sphere-triangle", "cone-apex-right-angle"])
def test_k_grid_rows_share_one_configuration(tmp_path, space, criterion, region):
    ks = [-1.0, 0.5, 2.0]
    n = 10
    assert run([
        "test", "--space", space, "--criterion", criterion, *region,
        "--k-grid=" + ",".join(map(str, ks)), "--samples", str(n), "--seed", "1",
        "--out", str(tmp_path),
    ]) == 0
    payload = read_summary(tmp_path, "test")
    lines = (tmp_path / "test_rows.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    by_sample: dict[str, list] = {}
    for row in rows:
        by_sample.setdefault(row[0], []).append(row)
    assert len(rows) == payload["results"]["rows"] == (n - payload["results"]["skipped"]) * 3
    for group in by_sample.values():
        assert [float(r[1]) for r in group] == ks
        assert len({r[2] for r in group}) == 1  # one scale: one configuration
        cbb = [float(r[3]) for r in group]
        cba = [float(r[4]) for r in group]
        assert cbb == sorted(cbb)
        assert cba == sorted(cba, reverse=True)


def test_first_variation_and_angle_sum_commands(tmp_path):
    for crit in ("first-variation", "angle-sum"):
        out = tmp_path / crit
        assert run([
            "test", "--space", SPHERE, "--criterion", crit,
            "--samples", "6", "--seed", "5", "--out", str(out),
        ]) == 0
        payload = read_summary(out, "test")
        assert payload["results"]["rows"] == 6
        assert abs(payload["results"]["max_defect"]) < 1e-3
        # every cell is a plain number (the foot's t* was once written as np.float64(...))
        rows = [line.split(",") for line in (out / "test_rows.csv").read_text().splitlines()[1:]]
        assert len(rows) == 6
        for row in rows:
            list(map(float, row))  # raises ValueError on any other text


@pytest.mark.parametrize("space, region", [
    (SPHERE, "center=[0.0,0.0,1.0],radius=0.3"),
    ('{"type":"hyperbolic","k":-1.0}', "center=[0.0,0.0,1.0],radius=0.5"),
    (CONE, "center=[0.0,0.0],radius=0.5"),
    (TRIPOD, "center=[0,0.0],radius=1.0"),
], ids=["sphere", "hyperbolic", "pi-cone", "tripod"])
def test_test_and_estimate_reject_the_same_tries(tmp_path, space, region):
    # `test` and `estimate` draw through one sampling pass, in rounds where they can
    for seed in ("1", "5", "61000"):
        common = ["--space", space, "--region", region, "--samples", "40", "--seed", seed]
        out = tmp_path / seed
        assert run(["test", "--criterion", "pythagorean", *common, "--out", str(out)]) == 0
        assert run(["estimate", "--criteria", "pythagorean", *common, "--out", str(out)]) == 0
        tested = read_summary(out, "test")["results"]["rejected"]
        assert list(tested) == sorted(criteria.REJECTIONS)
        assert sum(tested.values()) > 0
        assert tested == read_summary(out, "estimate")["results"]["rejected"]


# ---------------------------------------------------------------------------
# estimate / profile / mesh


def test_estimate_sphere(tmp_path):
    assert run([
        "estimate", "--space", SPHERE, "--samples", "60", "--seed", "2",
        "--out", str(tmp_path),
    ]) == 0
    payload = read_summary(tmp_path, "estimate")
    assert abs(payload["results"]["k_cbb"] - 1.0) <= 0.05
    assert abs(payload["results"]["k_cba"] - 1.0) <= 0.05


def test_estimate_rows_evaluate_each_sample_once_when_the_bounds_agree(tmp_path, monkeypatch):
    calls = []
    evaluate = estimator._EVALUATORS["pythagorean"]

    def counted(m, k, *, tol_cfg):
        calls.append((id(m), k))
        return evaluate(m, k, tol_cfg=tol_cfg)

    bounded = []
    estimate_bounds = estimator.estimate_bounds

    def counted_bounds(*args, **kwargs):
        est = estimate_bounds(*args, **kwargs)
        bounded.append(len(calls))
        return est

    monkeypatch.setitem(estimator._EVALUATORS, "pythagorean", counted)
    monkeypatch.setattr(estimator, "estimate_bounds", counted_bounds)
    assert run([
        "estimate", "--space", SPHERE, "--region", "center=[0.0,0.0,1.0],radius=0.3",
        "--samples", "40", "--seed", "63", "--out", str(tmp_path),
    ]) == 0
    results = read_summary(tmp_path, "estimate")["results"]
    assert results["k_cbb"] == results["k_cba"]
    rows = calls[bounded[0]:]
    assert {k for _, k in rows} == {results["k_cbb"]}
    assert len(rows) == len({i for i, _ in rows}) == results["n_samples"]


def test_profile_cone(tmp_path):
    assert run([
        "profile", "--space", '{"type":"cone","perimeter":3.141592653589793}',
        "--region", "center=[0.0,0.0],radius=0.25",
        "--centers", "[[0.0,0.0],[1.0,0.5]]",
        "--samples", "20", "--seed", "7", "--out", str(tmp_path),
    ]) == 0
    payload = read_summary(tmp_path, "profile")
    rows = payload["results"]["rows"]
    assert rows[0]["profile"]["classification"] == "non_vanishing"
    assert rows[1]["profile"]["classification"] == "vanishing"
    assert [row["estimate"]["skipped"] for row in rows] == [0, 0]


def test_mesh_command(tmp_path):
    obj = tmp_path / "octa.obj"
    v, f = octahedron()
    write_obj(obj, v, f)
    out = tmp_path / "report"
    assert run([
        "mesh", "--obj", str(obj), "--steiner", "2", "--pairs", "40",
        "--seed", "3", "--out", str(out),
    ]) == 0
    payload = read_summary(out, "mesh")
    assert payload["results"]["diagnostic_only"] is True
    assert payload["results"]["vertices"] == 6
    assert payload["results"]["error_bar"] > 0


@pytest.mark.parametrize("criterion", ["triangle", "angle-sum", "first-variation"])
def test_mesh_samples_with_degenerate_angles_are_skipped(tmp_path, criterion):
    # angles are measured 1/1280 of a leg from the vertex, below the mesh's
    # node spacing, so these samples raise LadderError; each is counted skipped
    obj = tmp_path / "icosphere2.obj"
    write_obj(obj, *icosphere(2))
    space = json.dumps({"type": "mesh", "path": str(obj), "steiner": 4})
    out = tmp_path / "report"
    assert run([
        "test", "--space", space, "--criterion", criterion,
        "--region", "center=0,radius=0.8", "--samples", "20", "--seed", "3", "--out", str(out),
    ]) == 0
    results = read_summary(out, "test")["results"]
    assert results["rows"] + results["skipped"] == 20
    # the summary says why: every skip is a LadderError
    assert results["skipped_by"] == {"LadderError": results["skipped"]}


def test_estimate_counts_samples_with_degenerate_angles_as_skipped(tmp_path):
    obj = tmp_path / "icosphere2.obj"
    write_obj(obj, *icosphere(2))
    space = json.dumps({"type": "mesh", "path": str(obj), "steiner": 4})
    out = tmp_path / "report"
    assert run([
        "estimate", "--space", space, "--criteria", "triangle",
        "--region", "center=0,radius=0.8", "--samples", "20", "--seed", "3", "--out", str(out),
    ]) == 0
    results = read_summary(out, "estimate")["results"]
    assert results["n_samples"] + results["skipped"] == 20 and results["skipped"] > 0
    assert results["skipped_by"] == {"LadderError": results["skipped"]}
    assert list(results["rejected"]) == sorted(criteria.REJECTIONS)
    rows = (out / "estimate_rows.csv").read_text().splitlines()
    assert len(rows) == 1 + results["n_samples"]


FAR_HYPERBOLIC = "center=[5946.0,9260.8,11013.2],radius=0.3"


@pytest.mark.parametrize("command", ["estimate", "test"])
def test_far_hyperbolic_triangles_whose_legs_miss_their_vertex_are_skipped(tmp_path, command):
    # about 10 units out, a minimal geodesic's end rounds up to 2e-8 from its
    # vertex, more than the ladder's 10 PT: those samples raise LadderError
    option = "--criteria" if command == "estimate" else "--criterion"
    assert run([
        command, "--space", '{"type":"hyperbolic","k":-1.0}',
        "--region", FAR_HYPERBOLIC, option, "triangle",
        "--samples", "40", "--seed", "1", "--out", str(tmp_path),
    ]) == 0
    results = read_summary(tmp_path, command)["results"]
    assert results["skipped_by"]["LadderError"] > 0
    measured = results["n_samples"] if command == "estimate" else results["rows"]
    assert measured + results["skipped"] == 40


def test_measured_sample_indices_are_the_test_rows_sample_column(tmp_path):
    # the far hyperbolic triangles above: LadderError skips leave gaps
    space = spaces.space_from_descriptor('{"type":"hyperbolic","k":-1.0}')
    center, radius = cli._parse_region(space, FAR_HYPERBOLIC)
    ms = estimator.sample_measurements(space, center, radius, ("triangle",), 40, 1)
    assert run(["test", "--space", '{"type":"hyperbolic","k":-1.0}', "--region", FAR_HYPERBOLIC,
                "--criterion", "triangle", "--samples", "40", "--seed", "1",
                "--out", str(tmp_path)]) == 0
    results = read_summary(tmp_path, "test")["results"]
    assert results["skipped_by"] == ms.skipped_by and results["skipped_by"]["LadderError"] > 0
    assert all(a < b for a, b in zip(ms.index, ms.index[1:]))
    assert len(ms.index) == len(ms["triangle"]) == 40 - results["skipped"]
    # the samples the scalar probes measure without a skip error, in draw order
    measured = []
    for i, (q, seg, _) in enumerate(criteria.foot_configs(space, center, radius,
                                                          np.random.default_rng(1), 40)):
        try:
            criteria.measure_triangle(space, seg.start, q, seg.end)
        except estimator.SKIPPED_SAMPLE:
            continue
        measured.append(i)
    assert ms.index == measured
    rows = (tmp_path / "test_rows.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == ms.index


def test_right_angle_rows_keep_the_indices_of_skipped_draws(tmp_path):
    # near the apex some right-angle draws are unavailable: their indices are gaps
    region = "center=[0.0,0.0],radius=0.5"
    assert run(["test", "--space", CONE, "--region", region, "--criterion", "right-angle",
                "--samples", "30", "--seed", "1", "--out", str(tmp_path)]) == 0
    cone = spaces.space_from_descriptor(CONE)
    center, radius = cli._parse_region(cone, region)
    rng = np.random.default_rng(1)
    drawn = []
    for i in range(30):
        try:
            criteria.sample_right_angle_config(cone, center, radius, rng)
        except estimator.SKIPPED_SAMPLE:
            continue
        drawn.append(i)
    rows = (tmp_path / "test_rows.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == drawn and len(drawn) < 30


@pytest.mark.parametrize("space, region", [
    (SPHERE, "center=[0.0,0.0,1.0],radius=0.3"),
    ('{"type":"hyperbolic","k":-1.0}', "center=[0.0,0.0,1.0],radius=0.5"),
    (CONE, "center=[0.0,0.0],radius=0.5"),
], ids=["sphere", "hyperbolic", "pi-cone"])
def test_test_rows_evaluate_the_measurements_estimate_bisects_over(tmp_path, space, region):
    ks = [-1.0, 0.0, 1.0, 200.0]  # the sides are inadmissible at k = 200
    sp = spaces.space_from_descriptor(space)
    center, radius = cli._parse_region(sp, region)
    for seed in (1, 61000):
        out = tmp_path / str(seed)
        assert run(["test", "--space", space, "--region", region, "--criterion", "pythagorean",
                    "--k-grid=-1,0,1,200", "--samples", "40", "--seed", str(seed),
                    "--out", str(out)]) == 0
        ms = estimator.sample_measurements(sp, center, radius, ("pythagorean",), 40, seed)
        want = []
        for i, m in zip(ms.index, ms["pythagorean"]):
            for k in ks:
                try:
                    o = estimator.evaluate_measurement("pythagorean", m, k)
                except ModelDomainError:
                    want.append((i, k, m.scale, None, None, None, "inadmissible"))
                    continue
                want.append((i, o.k, o.scale, o.cbb_defect, o.cba_defect, o.tolerance, o.verdict))
        lines = (out / "test_rows.csv").read_text().splitlines()[1:]
        # a float's repr reads back as the same float, bit for bit
        got = [(int(r[0]), *(None if x == "" else float(x) for x in r[1:6]), r[6])
               for r in (line.split(",") for line in lines)]
        assert got == want
        assert any(w[-1] == "inadmissible" for w in want)


def test_resolution_below_the_float_spacing_ends(tmp_path):
    # bisection stops where the bracket's ends are adjacent floats
    assert run(["estimate", "--space", SPHERE, "--samples", "3", "--resolution", "1e-300",
                "--out", str(tmp_path)]) == 0
    results = read_summary(tmp_path, "estimate")["results"]
    assert results["resolution"] == 1e-300 and results["k_cbb"] is not None


def test_tol_scale_sets_only_the_verdict_tolerance(tmp_path):
    # measuring reads no setting: every run measures the same samples, and
    # only each row's tolerance, max(1e-9, c scale^2), and verdict follow c
    runs = {}
    for c in (None, 0.0, 1e-2):
        out = tmp_path / f"test-{c}"
        assert run([
            "test", "--space", SPHERE, "--criterion", "pythagorean", "--k-grid=-1,0,1",
            "--samples", "20", "--seed", "2", "--out", str(out),
            *([] if c is None else [f"--tol-scale={c}"]),
        ]) == 0
        lines = (out / "test_rows.csv").read_text().splitlines()
        runs[c] = read_summary(out, "test")["results"], [line.split(",") for line in lines[1:]]
    default_results, default_rows = runs[None]
    assert default_rows
    for c, (results, rows) in runs.items():
        quad = 1e-4 if c is None else c
        # sample, k, scale, cbb_defect, cba_defect
        assert [row[:5] for row in rows] == [row[:5] for row in default_rows]
        for row in rows:
            scale = float(row[2])
            assert float(row[5]) == max(1e-9, quad * scale * scale)
        assert results["rejected"] == default_results["rejected"]
        assert results["skipped_by"] == default_results["skipped_by"]
    counts = []
    for c in (None, 1e-2):
        out = tmp_path / f"estimate-{c}"
        assert run([
            "estimate", "--space", SPHERE, "--samples", "30", "--seed", "2", "--out", str(out),
            *([] if c is None else [f"--tol-scale={c}"]),
        ]) == 0
        results = read_summary(out, "estimate")["results"]
        counts.append((results["n_samples"], results["skipped"], results["rejected"]))
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# exit codes and validation


def test_bad_descriptor_exit_3():
    assert run(["test", "--space", '{"type":"warp"}', "--criterion", "pythagorean",
                "--out", "/tmp/x"]) == 3


@pytest.mark.parametrize("vertex,form", [
    ("[0,0,0]", "each be 3 numbers [x, y, z], not all 0"),
    ("[0,1]", "be a list of 3 points of 3 finite numbers each"),
    ("[0,0,Infinity]", "be a list of 3 points of 3 finite numbers each"),
], ids=["zero", "two-numbers", "non-finite"])
def test_bad_triangle_vertex_exit_3(tmp_path, capsys, vertex, form):
    # each vertex is checked as point data before it is normalized
    space = '{"type":"spherical_triangle","k":1,"vertices":[%s,[0,1,0],[0,0,1]]}' % vertex
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["estimate", "--space", space, "--samples", "3", "--out", str(out)])
    assert code == 3
    assert f"spherical_triangle vertices must {form}, got " in capsys.readouterr().err
    assert not out.exists()


def test_missing_obj_exit_1(tmp_path):
    assert run(["mesh", "--obj", str(tmp_path / "missing.obj"), "--out", str(tmp_path)]) == 1


def test_bad_region_exit_2(tmp_path, capsys):
    test = ["test", "--space", SPHERE, "--criterion", "pythagorean"]
    obj = tmp_path / "octa.obj"
    write_obj(obj, *octahedron())
    cases = [
        ([*test, "--region", "nonsense"], "--region must look like"),
        *(([*test, "--region", f"center=[0,0,1],radius={r}", "--samples", "3"],
           "--region radius must be finite and > 0") for r in ("-0.3", "0", "nan", "inf")),
        ([*test, "--samples", "0"], "--samples must be >= 1"),
        (["estimate", "--space", SPHERE, "--samples", "0"], "--samples must be >= 1"),
        *((["estimate", "--space", SPHERE, "--samples", "3", "--resolution", r],
           "resolution must be finite and > 0") for r in ("0", "-0.01", "nan", "inf")),
        (["profile", "--space", SPHERE, "--samples", "0"], "--samples must be >= 1"),
        (["profile", "--space", SPHERE, "--per-eps", "0"], "--per-eps must be >= 1"),
        *(([*test, "--samples", "3", "--k", k], "--k must be finite") for k in ("nan", "inf")),
        ([*test, "--samples", "3", "--k-grid=0,-inf"], "--k-grid must be finite"),
        *(([*test, "--samples", "3", f"--k-grid={g}"], "--k-grid needs one or more")
          for g in (",", ",,", " , ")),
        *(([*test, "--samples", "3", f"--tol-scale={c}"], "--tol-scale must be finite and >= 0")
          for c in ("nan", "-1", "inf")),
        *((["estimate", "--space", SPHERE, "--samples", "3", f"--bracket={b}"],
           "k_bracket must be finite") for b in ("-inf,2", "-2,inf", "nan,2")),
        *((["estimate", "--space", SPHERE, "--samples", "3", f"--bracket={b}"],
           "k_bracket must satisfy k_lo < k_hi") for b in ("2,-2", "1,1")),
        *((["estimate", "--space", SPHERE, "--samples", "3", f"--bracket={b}"],
           "--bracket needs k_lo,k_hi") for b in ("1", "1,2,3", ",")),
        *((["profile", "--space", SPHERE, "--samples", "3", "--per-eps", "4",
            f"--eps-ladder={ladder}"], "eps ladder must have")
          for ladder in ("0.1,-0.1", "0.1,nan", "inf,0.1", "0.1,0", "0.1", "0.1,0.2")),
        *(([*cmd, "--region", f"center={center},radius=0.3", "--samples", "5"],
           "--region center point data must be finite numbers")
          for cmd in (test, ["estimate", "--space", SPHERE], ["profile", "--space", SPHERE])
          for center in ("[NaN,0.0,1.0]", "[0.0,Infinity,1.0]", '{"x":1}')),
        *((["profile", "--space", CONE, "--centers", centers,
            "--region", "center=[0.0,0.0],radius=0.25", "--seed", "1"],
           "--centers point data must be finite numbers")
          for centers in ("[[NaN,0.0]]", "[[1.0,0.5],[0.5,-Infinity]]")),
        (["profile", "--space", CONE, "--centers", "3"], "--centers must be a JSON list"),
        (["profile", "--space", CONE, "--centers", "[]"], "--centers must be a JSON list"),
        *((["mesh", "--obj", str(obj), "--pairs", n], "--pairs must be >= 1") for n in ("-1", "0")),
        *((["estimate", "--space", SPHERE, "--samples", "3", "--criteria", names],
           f"criterion {name!r} is named more than once")
          for names, name in (("pythagorean,pythagorean,triangle", "pythagorean"),
                              ("point-segment,point_segment", "point_segment"))),
    ]
    for i, (argv, message) in enumerate(cases):
        out = tmp_path / str(i)
        assert run([*argv, "--out", str(out)]) == 2, argv
        assert capsys.readouterr().err.startswith(f"config error: {message}"), argv
        assert not out.exists() or not any(out.iterdir()), argv


HYPERBOLIC = '{"type":"hyperbolic","k":-1.0}'
OCTANT = '{"type":"spherical_triangle","k":1.0,"vertices":[[1,0,0],[0,1,0],[0,0,1]]}'
# (space, point data, the form the error names, or None for a valid point)
POINT_DATA = [
    (HYPERBOLIC, "[0,0]", "3 numbers [x, y, z]"),
    (HYPERBOLIC, "[0.1,-0.2,0.0]", None),
    (SPHERE, "1", "3 numbers [x, y, z], not all 0"),
    (SPHERE, "[0,0,0]", "3 numbers [x, y, z], not all 0"),
    (SPHERE, "[0,0.6,0.8]", None),
    (PLANE, "[0,0,0]", "2 numbers [x, y]"),
    (PLANE, "[0.5,0.5]", None),
    (CONE, "[1,2,3]", "2 numbers [r, theta]"),
    (CONE, "[1,2]", None),
    (TRIPOD, "[1.5,0.3]", "2 numbers [ray, r], the ray an integer"),
    (TRIPOD, "[1,0.3]", None),
    (OCTANT, "[0,0,0]", "3 numbers [x, y, z], not all 0"),
    (OCTANT, "[1,1]", "3 numbers [x, y, z], not all 0"),
    (OCTANT, "[1,1,1]", None),
    ("mesh", "[0,1]", "one integer node id"),
    ("mesh", "0.7", "one integer node id"),
    ("mesh", "3", None),
]


@pytest.mark.parametrize("command", ["estimate", "profile"])
@pytest.mark.parametrize("space,data,form", POINT_DATA)
def test_point_data_of_the_wrong_shape_exit_2(tmp_path, capsys, command, space, data, form):
    if space == "mesh":
        obj = tmp_path / "octa.obj"
        write_obj(obj, *octahedron())
        space = json.dumps({"type": "mesh", "steiner": 2, "path": str(obj)})
    if command == "estimate":
        argv = ["estimate", "--region", f"center={data},radius=0.8", "--samples", "5"]
    else:
        argv = ["profile", "--centers", f"[{data}]", "--samples", "3", "--per-eps", "2"]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*argv, "--space", space, "--seed", "1", "--out", str(out)])
    err = capsys.readouterr().err
    if form is None:
        assert code == 0, err
        return
    name = json.loads(space)["type"]
    assert code == 2
    assert err.startswith(f"config error: {name} point data must be {form}, got "), err
    assert not out.exists()


def test_bracket_and_resolution_errors_come_before_sampling(tmp_path, capsys, monkeypatch):
    def sampled(*args, **kwargs):
        raise AssertionError("sampled before the bracket and resolution were checked")

    monkeypatch.setattr(estimator, "sample_measurements", sampled)
    cases = [
        (["--bracket=2,-2"], "k_bracket must satisfy k_lo < k_hi"),
        (["--bracket=1,1"], "k_bracket must satisfy k_lo < k_hi"),
        (["--bracket=-inf,2"], "k_bracket must be finite"),
        (["--resolution", "0"], "resolution must be finite and > 0"),
        (["--resolution", "nan"], "resolution must be finite and > 0"),
        # criteria that `test` runs but estimate has no bisection for
        *((["--criteria", names], f"criterion {name!r} cannot be estimated")
          for names, name in (("right-angle", "right-angle"), ("multiplicity", "multiplicity"),
                              ("pythagorean,first-variation", "first-variation"),
                              ("bogus", "bogus"))),
    ]
    for i, (extra, message) in enumerate(cases):
        out = tmp_path / str(i)
        argv = ["estimate", "--space", SPHERE, "--samples", "300", *extra, "--out", str(out)]
        assert run(argv) == 2, extra
        assert capsys.readouterr().err.startswith(f"config error: {message}"), extra


def test_unknown_criterion_usage_error(tmp_path):
    # no criterion counts a random point pair's minimal geodesics: a pair has
    # two with probability 0
    for name in ("bogus", "multiplicity"):
        with pytest.raises(SystemExit) as exc:
            run(["test", "--space", PLANE, "--criterion", name, "--out", str(tmp_path)])
        assert exc.value.code == 2, name


def test_space_descriptor_from_file(tmp_path):
    desc = tmp_path / "space.json"
    desc.write_text(SPHERE)
    out = tmp_path / "out"
    assert run([
        "test", "--space", str(desc), "--criterion", "pythagorean",
        "--samples", "5", "--seed", "1", "--out", str(out),
    ]) == 0


def test_validate_report_rejects_garbage():
    with pytest.raises(ValueError):
        cli.validate_report({"schema": 1})
    with pytest.raises(ValueError):
        cli.validate_report({
            "schema": 99, "tool": "cmpk", "version": "0", "command": "x",
            "config": {}, "results": {},
        })


# ---------------------------------------------------------------------------
# determinism


def test_byte_identical_reruns(tmp_path):
    args = [
        "test", "--space", SPHERE, "--criterion", "point-segment", "--k", "0.5",
        "--samples", "20", "--seed", "11",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    for name in ("test_rows.csv", "test_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
