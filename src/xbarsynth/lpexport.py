"""Emit the binding model as an industry-standard LP-format text file.

The internal search treats bus sharing combinatorially; this exporter
materializes the same model as a mixed-integer program so any off-the-shelf
MILP solver can cross-check results.  The quadratic "targets i and j share
bus k" product is linearized with the classic pair of inequalities

    x_i_k + x_j_k - 1 <= sb_i_j_k
    0.5 x_i_k + 0.5 x_j_k >= sb_i_j_k

which pin binary sb_i_j_k to exactly x_i_k * x_j_k.  Pair variables use the
unordered i < j convention; conflicts become the linear rows s_i_j = 0.
"""

from __future__ import annotations

from .solver import ProblemInstance, check_bus_count


def export_milp(inst: ProblemInstance, num_buses: int) -> str:
    """Render the full binding model in CPLEX LP text syntax."""
    t = inst.num_targets
    check_bus_count(num_buses, t)
    buses = range(1, num_buses + 1)
    targets = range(1, t + 1)
    pairs = [(i, j) for i in targets for j in targets if i < j]

    lines = [
        f"\\ partial crossbar binding: {t} targets, {num_buses} buses,"
        f" window {inst.window_size} cycles, maxtb {inst.maxtb}",
        "\\ x_i_k = 1 iff target i is connected to bus k",
        "\\ sb_i_j_k = 1 iff targets i and j (i<j) share bus k; s_i_j = sum_k sb_i_j_k",
        "Minimize",
        " obj: maxov",
        "Subject To",
    ]

    for i in targets:
        terms = " + ".join(f"x_{i}_{k}" for k in buses)
        lines.append(f" assign_{i}: {terms} = 1")

    for k in buses:
        for m in range(inst.comm.shape[1]):
            terms = [
                f"{int(inst.comm[i - 1, m])} x_{i}_{k}"
                for i in targets if inst.comm[i - 1, m] > 0
            ]
            if terms:
                lines.append(f" bw_{k}_{m}: " + " + ".join(terms) + f" <= {inst.window_size}")

    for i, j in pairs:
        for k in buses:
            lines.append(f" lin1_{i}_{j}_{k}: x_{i}_{k} + x_{j}_{k} - sb_{i}_{j}_{k} <= 1")
            lines.append(f" lin2_{i}_{j}_{k}: 0.5 x_{i}_{k} + 0.5 x_{j}_{k} - sb_{i}_{j}_{k} >= 0")

    for i, j in pairs:
        terms = " + ".join(f"sb_{i}_{j}_{k}" for k in buses)
        lines.append(f" share_{i}_{j}: {terms} - s_{i}_{j} = 0")

    for i, j in pairs:
        if inst.conflict[i - 1, j - 1]:
            lines.append(f" conflict_{i}_{j}: s_{i}_{j} = 0")

    for k in buses:
        terms = " + ".join(f"x_{i}_{k}" for i in targets)
        lines.append(f" card_{k}: {terms} <= {inst.maxtb}")

    for k in buses:
        terms = [
            f"{int(inst.om[i - 1, j - 1])} sb_{i}_{j}_{k}"
            for i, j in pairs if inst.om[i - 1, j - 1] > 0
        ]
        terms.append("- maxov")
        lines.append(f" busov_{k}: " + " ".join(
            term if idx == 0 or term.startswith("-") else f"+ {term}"
            for idx, term in enumerate(terms)
        ) + " <= 0")

    lines.append("Bounds")
    lines.append(" maxov >= 0")
    lines.append("Binaries")
    names = [f"x_{i}_{k}" for i in targets for k in buses]
    names += [f"sb_{i}_{j}_{k}" for i, j in pairs for k in buses]
    names += [f"s_{i}_{j}" for i, j in pairs]
    for pos in range(0, len(names), 8):
        lines.append(" " + " ".join(names[pos:pos + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"
