import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigentrack
from eigentrack.grid import ParamPoint, dyadic
from eigentrack.surrogate import Surrogate, _SurfaceData, build_surrogate, eval_surrogate


def point_1d(x, box):
    """The grid point at dyadic physical coordinate x."""
    from fractions import Fraction

    a, b = box[0]
    ref = 2 * (Fraction(str(x)) - Fraction(str(a))) / (Fraction(str(b)) - Fraction(str(a))) - 1
    k = ref.denominator.bit_length() - 1
    return ParamPoint.from_ref((dyadic(ref.numerator, k),), box)


def surface_1d(samples, box=((0.0, 1.0),), grid=None):
    """Hand-built one-surface surrogate from (phys x, value) pairs at dyadic x.

    ``grid`` lists the x of the full grid (default: the sample x); grid points
    without a sample are presence gaps.
    """
    from eigentrack.surrogate import _build_1d

    pts = [point_1d(x, box) for x, _ in samples]
    grid_order = sorted(point_1d(x, box) for x in grid) if grid is not None else pts
    data = _SurfaceData(points=pts, values=np.array([v for _, v in samples], dtype=float))
    _build_1d(data, grid_order)
    return Surrogate(dim=1, box=box, surfaces={1: data})


class TestEval1D:
    def test_linear_interpolation(self):
        s = surface_1d([(0.0, 1.0), (1.0, 3.0)])
        assert eval_surrogate(s, 1, (0.5,)) == pytest.approx(2.0)

    def test_exact_at_samples(self):
        s = surface_1d([(0.0, 1.0), (0.5, 7.25), (1.0, 3.0)])
        assert eval_surrogate(s, 1, (0.5,)) == 7.25

    def test_cell_midpoint_is_mean(self):
        s = surface_1d([(0.0, 2.0), (0.5, 4.0)])
        assert eval_surrogate(s, 1, (0.25,)) == pytest.approx(3.0)

    def test_outside_box_rejected(self):
        s = surface_1d([(0.0, 1.0), (1.0, 3.0)])
        with pytest.raises(ValueError):
            eval_surrogate(s, 1, (1.5,))

    def test_unknown_surface_rejected(self):
        s = surface_1d([(0.0, 1.0), (1.0, 3.0)])
        with pytest.raises(KeyError):
            eval_surrogate(s, 2, (0.5,))

    def test_point_only_surface(self):
        s = surface_1d([(0.5, 2.0)])
        assert eval_surrogate(s, 1, (0.5,)) == 2.0
        assert eval_surrogate(s, 1, (0.25,)) is None


    def test_breakpoint_returns_sample(self):
        # the chord of [0, 0.5] rounds to 0.09999999999999998 at its end;
        # the sample lookup returns the stored 0.1
        s = surface_1d([(0.0, 0.7), (0.5, 0.1)], grid=(0.0, 0.5, 1.0))
        assert 0.7 + (0.1 - 0.7) * (0.5 - 0.0) / (0.5 - 0.0) != 0.1
        assert eval_surrogate(s, 1, (0.5,)) == 0.1
        assert eval_surrogate(s, 1, (0.25,)) == pytest.approx(0.4)
        assert eval_surrogate(s, 1, (0.75,)) is None

    def test_presence_gap_is_uncovered(self):
        s = surface_1d(
            [(0.0, 1.0), (0.25, 2.0), (0.75, 4.0), (1.0, 5.0)], grid=(0.0, 0.25, 0.5, 0.75, 1.0)
        )
        assert [seg[:2] for seg in s.surfaces[1].segments] == [(0.0, 0.25), (0.75, 1.0)]
        for x in (0.3, 0.5, 0.7):
            assert eval_surrogate(s, 1, (x,)) is None
        assert eval_surrogate(s, 1, (0.125,)) == 1.5
        assert eval_surrogate(s, 1, (0.875,)) == 4.5
        assert eval_surrogate(s, 1, (0.75,)) == 4.0

    def test_negative_zero_hits_sample_at_zero(self):
        s = surface_1d([(-0.5, 1.0), (0.0, 0.1), (0.5, 3.0)], box=((-1.0, 1.0),))
        assert s.surfaces[1].points[1].phys == (0.0,)
        assert eval_surrogate(s, 1, (-0.0,)) == 0.1


class TestPaperRun1D:
    def test_samples_reproduced_exactly(self, run_1d, labeling_1d, provider_1d):
        s = build_surrogate(labeling_1d, provider_1d)
        for sid in s.surface_ids():
            for point, value in s.samples(sid):
                got = eval_surrogate(s, sid, point.phys)
                assert got == value

    def test_grid_point_value_at_055(self, run_1d, labeling_1d, provider_1d):
        s = build_surrogate(labeling_1d, provider_1d)
        # surface 1 passes through (0.4, ~80.8) and (0.7, ~38.2); at the grid
        # point 0.55 evaluation returns the stored sample, not an interpolation
        snap = next(
            provider_1d.get(p) for p in run_1d.points if abs(p.phys[0] - 0.55) < 1e-12
        )
        val = eval_surrogate(s, 1, (0.55,))
        assert val in snap.eigenvalues

    def test_interior_evaluation_continuous(self, labeling_1d, provider_1d):
        s = build_surrogate(labeling_1d, provider_1d)
        xs = np.linspace(0.4, 1.0, 601)
        vals = [eval_surrogate(s, 1, (x,)) for x in xs]
        vals = np.array([v for v in vals if v is not None])
        assert len(vals) == len(xs)
        assert np.max(np.abs(np.diff(vals))) < 5.0  # no jumps at breakpoints

    def test_surrogate_tracks_reference_within_window_fraction(
        self, labeling_1d, provider_1d, reference_1d, cfg_1d
    ):
        # The paper's indicator certifies matchings, not interpolation error,
        # so a certified cell may be wide where a curve bends: on [0.4, 0.55]
        # the fourth curve's chord misses it by 5.25% of the window width.  A
        # fixed window fraction is therefore no property of a piecewise-linear
        # surrogate on such a grid.  What the design does promise is checked
        # instead: with identifiers aligned as the error table aligns them,
        # the surrogate reproduces the reference eigenvalues at the grid
        # points, is their chord in between, and so deviates from the dense
        # reference by no more than the linear-interpolation remainder
        # (x-a)(b-x)/2 * max|second difference / h^2| over each cell.  That
        # bound is exact for lattice data, vanishes at the cell ends, and is
        # loosened only by floating-point rounding.
        s = build_surrogate(labeling_1d, provider_1d)
        ref = reference_1d.labels
        lattice = sorted(ref, key=lambda p: p.phys[0])
        xs = [p.phys[0] for p in lattice]

        # align at the root, then at each identifier's first co-appearance
        root = labeling_1d.root
        to_ref = dict(zip(labeling_1d.labels[root], ref[root]))
        taken = set(to_ref.values())
        for p in sorted(labeling_1d.labels):
            assert p in ref, f"grid point {p} is off the reference lattice"
            for sid, rid in zip(labeling_1d.labels[p], ref[p]):
                if sid not in to_ref and rid not in taken:
                    to_ref[sid] = rid
                    taken.add(rid)

        def ref_value(p, sid):
            ids = ref[p]
            assert to_ref.get(sid) in ids, f"surface {sid} absent from the reference at {p}"
            return provider_1d.get(p).eigenvalues[ids.index(to_ref[sid])]

        for p, ids in labeling_1d.labels.items():  # exact at the grid points
            for sid in ids:
                assert eval_surrogate(s, sid, p.phys) == ref_value(p, sid)

        width = cfg_1d.window[1] - cfg_1d.window[0]
        worst, checked = 0.0, 0
        for sid in s.surface_ids():
            for xa, xb, _, _ in s.surfaces[sid].segments:
                cell = lattice[xs.index(xa) : xs.index(xb) + 1]
                lam = np.array([ref_value(p, sid) for p in cell])
                h = (xb - xa) / (len(cell) - 1)
                curvature = np.max(np.abs(np.diff(lam, 2)), initial=0.0) / h**2
                for p, exact in zip(cell, lam):
                    x = p.phys[0]
                    val = eval_surrogate(s, sid, p.phys)
                    chord = lam[0] + (lam[-1] - lam[0]) * (x - xa) / (xb - xa)
                    assert abs(val - chord) <= 1e-12 * abs(chord), f"surface {sid} at {x}"
                    dev = abs(val - exact)
                    bound = (x - xa) * (xb - x) / 2 * curvature
                    assert dev <= bound + 1e-9 * abs(exact), (
                        f"surface {sid} at {x}: deviation {dev:.4g} exceeds the "
                        f"interpolation bound {bound:.4g} of cell [{xa}, {xb}]"
                    )
                    worst = max(worst, dev)
                    checked += 1
        assert checked > 0
        assert worst <= 0.06 * width, (
            f"max deviation {worst:.3f} = {worst / width:.2%} of the window width "
            "is beyond the measured 6% envelope"
        )


class TestEval2D:
    def test_constant_triangle(self):
        box = ((-1.0, 1.0), (-1.0, 1.0))
        pts = [
            ParamPoint.from_ref((dyadic(0), dyadic(0)), box),
            ParamPoint.from_ref((dyadic(1), dyadic(0)), box),
            ParamPoint.from_ref((dyadic(0), dyadic(1)), box),
        ]
        data = _SurfaceData(points=pts, values=np.array([1.0, 1.0, 1.0]))
        from eigentrack.surrogate import _build_nd

        _build_nd(data)
        s = Surrogate(dim=2, box=box, surfaces={1: data})
        assert eval_surrogate(s, 1, (0.2, 0.2)) == pytest.approx(1.0)

    def test_collinear_samples_degrade_to_point_only(self):
        box = ((-1.0, 1.0), (-1.0, 1.0))
        pts = [
            ParamPoint.from_ref((dyadic(j - 1), dyadic(0)), box) for j in range(3)
        ]
        data = _SurfaceData(points=pts, values=np.array([1.0, 2.0, 3.0]))
        from eigentrack.surrogate import _build_nd

        _build_nd(data)
        assert data.point_only
        s = Surrogate(dim=2, box=box, surfaces={1: data})
        assert eval_surrogate(s, 1, (0.0, 0.0)) == 2.0
        assert eval_surrogate(s, 1, (0.5, 0.5)) is None

    def test_2d_run_samples_reproduced(self, run_2d, labeling_2d, provider_2d):
        s = build_surrogate(labeling_2d, provider_2d)
        checked = 0
        for sid in s.surface_ids():
            for point, value in s.samples(sid):
                assert eval_surrogate(s, sid, point.phys) == value
                checked += 1
        assert checked > 100

    def test_matches_scipy_linear_interpolator(self, labeling_2d, provider_2d, cfg_2d):
        # Oracle: scipy's LinearNDInterpolator on each surface's own
        # triangulation, behind the same exact-sample lookup, called once per
        # query so that its simplex walk starts afresh as find_simplex's does
        from scipy.interpolate import LinearNDInterpolator

        s = build_surrogate(labeling_2d, provider_2d)
        oracles = {
            sid: LinearNDInterpolator(data.triangulation, data.values)
            for sid, data in s.surfaces.items()
            if data.triangulation is not None
        }
        samples = {sid: {p.phys: float(v) for p, v in s.samples(sid)} for sid in s.surface_ids()}

        def expected(sid, mu):
            if mu in samples[sid]:
                return samples[sid][mu]
            if sid not in oracles:
                return None
            out = float(oracles[sid](mu))
            return None if np.isnan(out) else out

        rng = np.random.default_rng(7)
        lo, hi = np.array(cfg_2d.box).T
        ids = rng.choice(s.surface_ids(), size=5000)
        queries = [(int(sid), tuple(mu.tolist())) for sid, mu in zip(ids, rng.uniform(lo, hi, (5000, 2)))]
        axes = [np.linspace(a, b, 65).tolist() for a, b in cfg_2d.box]
        lattice = [(x, y) for x in axes[0] for y in axes[1]]
        queries += [(sid, mu) for sid in s.surface_ids() for mu in lattice]

        # repr is exact for floats, tells -0.0 from 0.0 and None from either
        results = [(repr(eval_surrogate(s, sid, mu)), repr(expected(sid, mu))) for sid, mu in queries]
        mismatched = [(q, got, want) for q, (got, want) in zip(queries, results) if got != want]
        assert not mismatched, f"{len(mismatched)} of {len(queries)} differ, e.g. {mismatched[:3]}"
        covered = sum(got != "None" for got, _ in results)
        assert 0.2 * len(queries) < covered < len(queries)   # both branches exercised

    def test_leaves_scipy_interpolate_unimported(self):
        # the evaluator needs only scipy.spatial's triangulation; importing
        # scipy.interpolate costs about 0.15 s and 11 MB
        src = str(Path(eigentrack.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "from types import SimpleNamespace\n"
            "import numpy as np\n"
            "import eigentrack.cli\n"
            "from eigentrack.grid import tensor_grid\n"
            "from eigentrack.propagation import SurfaceLabeling\n"
            "from eigentrack.surrogate import build_surrogate, eval_surrogate\n"
            "box = ((0.0, 1.0), (0.0, 1.0))\n"
            "points = sorted(tensor_grid(1, box))\n"
            "labeling = SurfaceLabeling(labels={p: (1,) for p in points}, root=points[0])\n"
            "provider = SimpleNamespace(\n"
            "    cfg=SimpleNamespace(dim=2, box=box),\n"
            "    get=lambda p: SimpleNamespace(eigenvalues=np.array([p.phys[0] + 2 * p.phys[1]])),\n"
            ")\n"
            "s = build_surrogate(labeling, provider)\n"
            "assert s.surfaces[1].triangulation is not None\n"
            "value = eval_surrogate(s, 1, (0.3, 0.6))\n"
            "assert abs(value - 1.5) < 1e-12, value\n"
            "print('scipy.interpolate' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
