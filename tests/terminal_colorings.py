"""Test helper: the paper's literal coloring procedure for the terminal
problem when no (k, q)-cut exists, the reference for the partition table.

`symcsp.cut_solver.solve_terminal_direct` scores every partition, which is
the exhaustive-coloring form of this procedure: flip regions range over
all unions of connected label-1 components, which is every vertex set.
Here a coloring family (Monte-Carlo in random mode) proposes the label-1
sides, and a knapsack over their components picks the flips.
"""

from __future__ import annotations

from itertools import product

from symcsp.coloring import build_coloring_family
from symcsp.cut_solver import TerminalInstance, _Ctx, _stay_table, _table_update, crossing_edges, cut_value


def solve_terminal_colorings(ti: TerminalInstance, ctx: _Ctx) -> dict:
    """The literal coloring procedure: any close solution flips connected
    components that lie on the color-1 side of some family member, with
    label-0 neighborhoods, selected under the closeness budget by a
    gain/loss knapsack equivalent to guessing per-component deltas.
    """
    run = ctx.solve
    n = ti.graph.num_vertices
    base_value = cut_value(ti.graph, ti.a_mask)
    # the all-stay candidate is always legal for the matching f
    table = _stay_table(ti)

    big_side = (ti.k_prime + 1) * (2 * ctx.q + 2)
    family = build_coloring_family(
        n, min(n, big_side), min(n, ctx.k_global), run.mode, run.seed, run.delta
    )
    by_id = {e.id: e for e in ti.graph.edges}
    for coloring in family.colorings:
        if run.expired():
            break
        run.colorings_tried += 1
        ones = [v for v in range(n) if (coloring >> v) & 1]
        if not ones:
            continue
        oneset = set(ones)
        comps = ti.graph.components(ones)
        comp_of = {v: i for i, comp in enumerate(comps) for v in comp}

        gains = []
        for comp in comps:
            cs = set(comp)
            gain = loss = 0
            for e in ti.graph.edges:
                inside = (e.u in cs) + (e.v in cs)
                if inside != 1:
                    continue
                crossed = ((ti.a_mask >> e.u) ^ (ti.a_mask >> e.v)) & 1
                sat_before = crossed == e.etype
                sat_after = (crossed ^ 1) == e.etype
                gain += (not sat_before) and sat_after
                loss += sat_before and not sat_after
            gains.append((gain, loss))

        marked_exclude = set()
        for mid in ti.marked:
            e = by_id[mid]
            cu, cv = e.u in oneset, e.v in oneset
            if cu != cv:
                marked_exclude.add(comp_of[e.u if cu else e.v])

        for fbits in product((0, 1), repeat=len(ti.terminals)):
            must_include = set()
            must_exclude = set(marked_exclude)
            feasible = True
            for t, want in zip(ti.terminals, fbits):
                have = (ti.a_mask >> t) & 1
                if t in oneset:
                    if want != have:
                        must_include.add(comp_of[t])
                    else:
                        must_exclude.add(comp_of[t])
                elif want != have:
                    feasible = False
            if not feasible or (must_include & must_exclude):
                continue
            base_w = sum(gains[c][0] + gains[c][1] for c in must_include)
            base_g = sum(gains[c][0] - gains[c][1] for c in must_include)
            if base_w > ti.k_prime:
                continue
            free = [
                c
                for c in range(len(comps))
                if c not in must_include and c not in must_exclude
            ]
            # dp[w] = (best gain, lexicographically smallest chosen set)
            dp = {0: (0, ())}
            for c in free:
                w = gains[c][0] + gains[c][1]
                g = gains[c][0] - gains[c][1]
                upd = {}
                for cw, (cg, chosen) in dp.items():
                    nw = cw + w
                    if nw > ti.k_prime:
                        continue
                    cand = (cg + g, chosen + (c,))
                    old = upd.get(nw)
                    if old is None or cand[0] > old[0]:
                        upd[nw] = cand
                for nw, cand in upd.items():
                    old = dp.get(nw)
                    if old is None or cand[0] > old[0]:
                        dp[nw] = cand
            for k2 in range(base_w, ti.k_prime + 1):
                best = None
                for w, (g, chosen) in dp.items():
                    if base_w + w <= k2 and (best is None or g > best[0]):
                        best = (g, chosen, w)
                if best is None:
                    continue
                sel = set(must_include)
                for c in best[1]:
                    sel.add(c)
                mask = ti.a_mask
                for c in sel:
                    for v in comps[c]:
                        mask ^= 1 << v
                value = base_value + base_g + best[0]
                delta = base_w + best[2]
                assert value == cut_value(ti.graph, mask), "knapsack value is not the cut value"
                if ti.marked <= crossing_edges(ti.graph, mask):
                    _table_update(table, (fbits, k2), mask, value, delta)
    return table
