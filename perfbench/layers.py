"""Per-layer metrics computed from the spans of one traced child.

A span's self time is its duration minus the durations of its direct
child spans. A group's time sums the durations of its outermost spans
only, so a call nested inside another call of the same group is not
counted twice.
"""

from __future__ import annotations

CLI_RUN = ("cli.run_build", "cli.run_simulate", "cli.run_timeavg", "cli.run_check")
WRITERS = {
    "serialize.trajectory_s": "serialize.write_trajectory_csv",
    "serialize.spatial_s": "serialize.write_spatial_csv",
    "serialize.matrix_s": "serialize.write_matrix_csv",
    "serialize.averages_s": "serialize.write_averages_csv",
    "serialize.report_s": "serialize.write_report_json",
}

# name -> (unit, kind, functions); kind is "time" (outermost durations),
# "self" (self times), "calls" or "fact:<key>" (a recorded per-call fact).
SPAN_METRICS = {
    "cli.run_s": ("s", "time", CLI_RUN),
    "cli.self_s": ("s", "self", ("cli.*",)),
    "cli.parse_s": ("s", "time", ("cli.load_config", "cli.parse_config")),
    "builder.construct_s": (
        "s", "time",
        ("builder.make_mu_schedule", "builder.build_chain", "builder.assemble_augmented"),
    ),
    "builder.fixed_point_s": ("s", "time", ("builder.check_fixed_point",)),
    "analysis.certify_s": ("s", "time", ("analysis.certify_positive_definite",)),
    "analysis.certify_calls": ("count", "calls", ("analysis.certify_positive_definite",)),
    "analysis.reduced_s": ("s", "time", ("analysis.build_reduced", "analysis.laplacian_split")),
    "analysis.exp_bound_self_s": ("s", "self", ("analysis.verify_exp_bound",)),
    "lqs.symplectic_drift_s": ("s", "time", ("lqs.symplectic_drift",)),
    "lqs.symplectic_drift_calls": ("count", "calls", ("lqs.symplectic_drift",)),
    "lqs.realizability_s": ("s", "time", ("lqs.realizability_residual",)),
    "simulate.propagator_s": ("s", "time", ("simulate.propagator",)),
    "simulate.propagator_calls": ("count", "calls", ("simulate.propagator",)),
    "simulate.trajectory_self_s": ("s", "self", ("simulate.coefficient_trajectory",)),
    "simulate.trajectory_samples": (
        "count", "fact:samples", ("simulate.coefficient_trajectory",),
    ),
    "simulate.trajectory_mb": ("MB", "fact:bytes", ("simulate.coefficient_trajectory",)),
    "simulate.quadrature_s": ("s", "time", ("simulate.time_average_quadrature",)),
    "simulate.exact_avg_s": ("s", "time", ("simulate.time_average_exact",)),
    "simulate.exact_avg_calls": ("count", "calls", ("simulate.time_average_exact",)),
    "simulate.max_frequency_s": ("s", "time", ("simulate.max_frequency",)),
    "simulate.max_frequency_calls": ("count", "calls", ("simulate.max_frequency",)),
    "simulate.spatial_avg_s": ("s", "time", ("simulate.spatial_average",)),
    **{name: ("s", "time", (fn,)) for name, fn in WRITERS.items()},
    "serialize.bytes_mb": ("MB", "fact:bytes", tuple(WRITERS.values())),
    "serialize.files": ("count", "calls", tuple(WRITERS.values())),
}

# Metrics the runner adds: mb_per_s from two span metrics, files_identical
# from the correctness gate, overhead_frac from traced against untraced runs.
DERIVED = {
    "serialize.mb_per_s": "MB/s",
    "serialize.files_identical": "count",
    "trace.overhead_frac": "ratio",
}

UNITS = {name: spec[0] for name, spec in SPAN_METRICS.items()} | DERIVED


def _matches(name: str, patterns: tuple[str, ...]) -> bool:
    return any(
        name.startswith(p[:-1]) if p.endswith("*") else name == p for p in patterns
    )


def span_metrics(trace: dict) -> dict[str, float]:
    """Every SPAN_METRICS value, plus serialize.mb_per_s, for one trace."""
    names = trace["names"]
    spans = trace["spans"]
    facts = trace["facts"]
    child_time = [0.0] * len(spans)
    by_name: list[list[int]] = [[] for _ in names]
    for position, (index, parent, start, end) in enumerate(spans):
        by_name[index].append(position)
        if parent >= 0:
            child_time[parent] += end - start

    values = {}
    for metric, (_, kind, patterns) in SPAN_METRICS.items():
        members = [_matches(name, patterns) for name in names]
        positions = [p for index, ps in enumerate(by_name) if members[index] for p in ps]
        total = 0.0
        for position in positions:
            index, parent, start, end = spans[position]
            if kind == "calls":
                total += 1
            elif kind == "self":
                total += end - start - child_time[position]
            elif kind == "time":
                # count only spans with no ancestor in the same group
                ancestor = parent
                while ancestor >= 0 and not members[spans[ancestor][0]]:
                    ancestor = spans[ancestor][1]
                if ancestor < 0:
                    total += end - start
            else:
                fact = facts.get(str(position), {}).get(kind.split(":", 1)[1], 0)
                total += fact / 1e6 if metric.endswith("_mb") else fact
        values[metric] = total
    writing = sum(values[name] for name in WRITERS)
    values["serialize.mb_per_s"] = values["serialize.bytes_mb"] / writing if writing else 0.0
    return values
