"""Report emission: grid dumps, per-level matched-eigenvalue curves,
verification summaries, error tables, run metadata and surrogate samples.

Everything is plain CSV or JSON.  Floats are written with 17 significant
digits so emitted files round-trip bit for bit and identical runs produce
byte-identical output.
"""
from __future__ import annotations

import json
from pathlib import Path

from eigentrack.grid import ParamPoint
from eigentrack.propagation import ErrorRow, SurfaceLabeling, level_labelings, score_levels
from eigentrack.refinement import RunState
from eigentrack.surrogate import Surrogate


def fmt(x: float) -> str:
    return f"{x:.17g}"


def _point_fields(point: ParamPoint) -> list[str]:
    nums = [str(c.num) for c in point.ref]
    dens = [str(c.log2_den) for c in point.ref]
    phys = [fmt(x) for x in point.phys]
    return nums + dens + phys


def _point_header(dim: int) -> list[str]:
    return (
        [f"ref_num_{k + 1}" for k in range(dim)]
        + [f"ref_log2_den_{k + 1}" for k in range(dim)]
        + [f"mu_{k + 1}" for k in range(dim)]
    )


def write_grid_csv(points, level_of: dict[ParamPoint, int], dim: int, path: Path) -> None:
    lines = [",".join(["level"] + _point_header(dim))]
    for p in sorted(points):
        lines.append(",".join([str(level_of[p])] + _point_fields(p)))
    path.write_text("\n".join(lines) + "\n")


def write_curves_csv(labeling: SurfaceLabeling, provider, dim: int, path: Path) -> None:
    lines = [",".join(["surface_id"] + _point_header(dim) + ["eigenvalue"])]
    for sid, members in labeling.surfaces().items():
        for point, idx in members:
            lam = provider.get(point).eigenvalues[idx]
            lines.append(",".join([str(sid)] + _point_fields(point) + [fmt(lam)]))
    path.write_text("\n".join(lines) + "\n")


def write_verifications_csv(state: RunState, path: Path) -> None:
    dim = state.cfg.dim
    header = (
        ["level"]
        + [f"a_mu_{k + 1}" for k in range(dim)]
        + [f"b_mu_{k + 1}" for k in range(dim)]
        + ["verdict", "failed_at", "ambiguous_pairs", "clusters"]
    )
    lines = [",".join(header)]
    for sub in state.subintervals:
        ambiguous = ";".join(
            f"j={d.j + 1}:r1={'|'.join(str(i + 1) for i in d.r1)}"
            f":r2={'|'.join(str(i + 1) for i in d.r2)}"
            for d in sub.report.diagnostics
            if len(d.r1) > 1 or len(d.r2) > 1
        )
        clusters = ";".join(
            "|".join(str(i + 1) for i in c.rows) for c in sub.report.clusters
        )
        failed = "" if sub.report.failed_at is None else str(sub.report.failed_at + 1)
        lines.append(
            ",".join(
                [str(sub.level)]
                + [fmt(x) for x in sub.a.phys]
                + [fmt(x) for x in sub.b.phys]
                + [sub.report.verdict, failed, ambiguous, clusters]
            )
        )
    path.write_text("\n".join(lines) + "\n")


def write_error_table(rows: list[ErrorRow], csv_path: Path, txt_path: Path) -> None:
    header = ["level", "points_total", "wrongly_matched", "subintervals", "uncertified"]
    lines = [",".join(header)]
    for r in rows:
        lines.append(
            f"{r.level},{r.points_total},{r.wrongly_matched},"
            f"{r.subintervals_checked},{r.subintervals_uncertified}"
        )
    csv_path.write_text("\n".join(lines) + "\n")

    titles = [
        "Level",
        "Total no. of points",
        "No. of wrongly matched points",
        "No. of subintervals",
        "No. of uncertified subintervals",
    ]
    table = [titles] + [
        [
            str(r.level),
            str(r.points_total),
            str(r.wrongly_matched),
            str(r.subintervals_checked),
            str(r.subintervals_uncertified),
        ]
        for r in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(titles))]
    out = ["Error By Level"]
    for row in table:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    txt_path.write_text("\n".join(out) + "\n")


def write_surrogate_csv(surrogate: Surrogate, path: Path) -> None:
    lines = [",".join(["surface_id"] + _point_header(surrogate.dim) + ["eigenvalue"])]
    for sid in surrogate.surface_ids():
        for point, value in surrogate.samples(sid):
            lines.append(",".join([str(sid)] + _point_fields(point) + [fmt(value)]))
    path.write_text("\n".join(lines) + "\n")


def read_surrogate_csv(path: Path):
    """Parse an emitted surrogate CSV back into (surface_id -> samples).

    Returns a dict mapping surface id to a list of ((ref nums, ref dens),
    phys coords, eigenvalue) tuples, suitable for rebuilding interpolants.
    """
    lines = path.read_text().strip().split("\n")
    dim = (len(lines[0].split(",")) - 2) // 3
    out: dict[int, list] = {}
    for line in lines[1:]:
        cells = line.split(",")
        sid = int(cells[0])
        nums = tuple(int(c) for c in cells[1 : 1 + dim])
        dens = tuple(int(c) for c in cells[1 + dim : 1 + 2 * dim])
        phys = tuple(float(c) for c in cells[1 + 2 * dim : 1 + 3 * dim])
        value = float(cells[1 + 3 * dim])
        out.setdefault(sid, []).append(((nums, dens), phys, value))
    return out


def emit_reports(
    state: RunState,
    labeling: SurfaceLabeling,
    surrogate: Surrogate,
    out_dir: str | Path,
    reference: SurfaceLabeling | None = None,
) -> list[Path]:
    """Write the full report set for a finished run; returns written paths.

    Each level is labeled once; the same labelings back the per-level curves
    and, when a reference labeling is given, the error table.  Without a
    reference no error table is written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dim = state.cfg.dim
    written: list[Path] = []

    level_of = {}
    for ls in state.levels:
        for p in ls.new_points:
            level_of[p] = ls.level

    labelings = level_labelings(state, labeling)
    for ls, level_labeling in zip(state.levels, labelings):
        path = out / f"grid_level_{ls.level}.csv"
        write_grid_csv(ls.points, level_of, dim, path)
        written.append(path)

        cpath = out / f"curves_level_{ls.level}.csv"
        write_curves_csv(level_labeling, state.provider, dim, cpath)
        written.append(cpath)

    vpath = out / "verifications.csv"
    write_verifications_csv(state, vpath)
    written.append(vpath)

    if reference is not None:
        paths = (out / "error_table.csv", out / "error_table.txt")
        write_error_table(score_levels(labelings, reference, state), *paths)
        written.extend(paths)

    spath = out / "surrogate.csv"
    write_surrogate_csv(surrogate, spath)
    written.append(spath)

    meta = {
        "terminated": state.terminated,
        "final_level": state.final_level,
        "levels": state.level_records(),
        "points_total": len(state.points),
        "surfaces": len(labeling.surface_ids()),
        "config": {
            "dim": state.cfg.dim,
            "box": [list(ab) for ab in state.cfg.box],
            "window": list(state.cfg.window),
            "mesh_n": state.cfg.mesh_n,
            "w1": state.cfg.w1,
            "w2": state.cfg.w2,
            "t_pi": state.cfg.t_pi,
            "t_lambda": state.cfg.t_lambda,
            "initial_level": state.cfg.initial_level,
            "max_level": state.cfg.max_level,
        },
    }
    mpath = out / "run.json"
    mpath.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    written.append(mpath)
    return written
