import pytest

from reloc.graphs import INF, build_graph, make_clique, make_grid, make_star
from reloc.relocation import (
    Collision,
    Instance,
    KIND_EMPTY,
    KIND_OCCUPANCY,
    KIND_ROT,
    KIND_SWAP,
    KIND_VERTEX,
    Variant,
    effective_adjacency,
    effective_distances,
    make_plan,
    plan_cost,
    random_instance,
    random_permutation_instance,
    step_legal,
    validate,
)

PATH4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
TRI = make_clique(3)


def inst(variant, starts, goals, g=PATH4):
    return Instance(g, variant, tuple(starts), tuple(goals))


# --- cost semantics ---------------------------------------------------------

def test_plan_cost_trailing_waits_free():
    assert plan_cost([(0, 1, 2, 2, 2)]) == 2


def test_plan_cost_interior_goal_visit_charged():
    # reaches the goal at t=2, leaves, and comes back: cost is the final
    # settle time 4, not 2
    assert plan_cost([(0, 1, 2, 1, 2)]) == 4


def test_plan_cost_start_at_goal():
    assert plan_cost([(3, 3, 3)]) == 0
    assert plan_cost([(3,)]) == 0


def test_make_plan_fields():
    p = make_plan([(0, 1, 1), (3, 2, 2)])
    assert p.cost == 2 and p.makespan == 2


# --- per-variant step rules -------------------------------------------------

def test_mapf_move_into_empty_ok():
    i = inst(Variant.MAPF, (0, 2), (1, 3))
    assert step_legal(i, (0, 2), (1, 3)) == []


def test_mapf_move_into_occupied_is_occupancy_collision():
    i = inst(Variant.MAPF, (0, 1), (1, 2))
    cols = step_legal(i, (0, 1), (1, 1))
    kinds = {c.kind for c in cols}
    assert KIND_OCCUPANCY in kinds and KIND_VERTEX in kinds
    occ = next(c for c in cols if c.kind == KIND_OCCUPANCY)
    assert (occ.i, occ.j, occ.v, occ.u) == (0, 1, 1, 0)


def test_mapf_trains_are_legal():
    # follower may enter the vertex its leader vacates only in variants that
    # move tokens; classical MAPF forbids it (target must be empty before)
    i = inst(Variant.MAPF, (0, 1), (1, 2))
    cols = step_legal(i, (0, 1), (1, 2))
    assert len(cols) == 1 and cols[0].kind == KIND_OCCUPANCY


def test_shared_target_is_vertex_collision_at_arrival():
    i = inst(Variant.MAPF, (0, 2), (1, 3))
    cols = step_legal(i, (0, 2), (1, 1), t=5)
    assert cols[0].kind == KIND_VERTEX and cols[0].t == 6


def test_tswap_swap_legal_one_sided_not():
    i = inst(Variant.TSWAP, (0, 1), (1, 0))
    assert step_legal(i, (0, 1), (1, 0)) == []
    cols = step_legal(i, (0, 1), (1, 1))
    assert any(c.kind == KIND_SWAP and (c.i, c.j) == (0, 1) for c in cols)


@pytest.mark.parametrize("variant,kind", [
    (Variant.TSWAP, KIND_SWAP),  # a swap that nobody answers
    (Variant.TROT, KIND_EMPTY),
    (Variant.TPERM, KIND_EMPTY),
], ids=lambda x: getattr(x, "value", x))
def test_token_move_into_empty_is_degenerate(variant, kind):
    i = inst(variant, (0, 1), (1, 0))
    cols = step_legal(i, (0, 2), (0, 3))
    assert cols == [Collision(kind, 0, 1, 3, 1, 2)]
    assert cols[0].degenerate


def test_trot_two_cycle_forbidden_three_cycle_ok():
    i = Instance(TRI, Variant.TROT, (0, 1, 2), (1, 2, 0))
    assert step_legal(i, (0, 1, 2), (1, 2, 0)) == []
    j = inst(Variant.TROT, (0, 1), (1, 0))
    cols = step_legal(j, (0, 1), (1, 0))
    assert cols == [Collision(KIND_ROT, 0, 0, 1, 1, 0)]
    assert not cols[0].degenerate


def test_tperm_allows_both_cycle_lengths():
    i = Instance(TRI, Variant.TPERM, (0, 1, 2), (1, 2, 0))
    assert step_legal(i, (0, 1, 2), (1, 2, 0)) == []
    j = inst(Variant.TPERM, (0, 1), (1, 0))
    assert step_legal(j, (0, 1), (1, 0)) == []


def test_tperm_chain_into_stayer_collides():
    # item 0 moves onto item 1's vertex while 1 stays: shared vertex at t+1
    i = inst(Variant.TPERM, (0, 1), (1, 0))
    cols = step_legal(i, (0, 1), (1, 1))
    assert cols and cols[0].kind == KIND_VERTEX


def test_step_rejects_non_edges():
    i = inst(Variant.MAPF, (0,), (3,))
    with pytest.raises(ValueError):
        step_legal(i, (0,), (2,))


def test_collision_sort_is_time_major():
    a = Collision(KIND_SWAP, 0, 0, 0, 1, 1)
    b = Collision(KIND_VERTEX, 1, 0, 2, 1)
    assert sorted([b, a], key=Collision.sort_key) == [a, b]
    # within a time: lower item first, then vertex < occupancy < the
    # movement-rule kinds, which share one rank, then the items
    cols = [
        Collision(KIND_ROT, 0, 1, 2, 2, 3),
        Collision(KIND_EMPTY, 0, 1, 4, 1, 3),
        Collision(KIND_VERTEX, 0, 1, 5, 2),
        Collision(KIND_OCCUPANCY, 0, 1, 4, 2, 3),
        Collision(KIND_VERTEX, 0, 0, 6, 3),
    ]
    assert sorted(cols, key=Collision.sort_key) == [
        cols[4], cols[2], cols[3], cols[1], cols[0],
    ]


# --- validate ----------------------------------------------------------------

def test_validate_accepts_solution():
    i = inst(Variant.TSWAP, (0, 1), (1, 0))
    assert validate(i, make_plan([(0, 1, 1), (1, 0, 0)])) == []


def test_validate_reports_all_collisions_sorted():
    i = inst(Variant.MAPF, (0, 2), (1, 2))
    p = make_plan([(0, 1, 1), (2, 1, 2)])  # both at vertex 1 at t=1
    cols = validate(i, p)
    assert [c.kind for c in cols] == [KIND_VERTEX]
    assert cols[0].t == 1 and cols[0].v == 1


def test_validate_checks_structure():
    i = inst(Variant.MAPF, (0, 3), (1, 2))
    with pytest.raises(ValueError):
        validate(i, make_plan([(0, 1), (3, 2, 2)]))
    with pytest.raises(ValueError):
        validate(i, make_plan([(0, 2), (3, 2)]))  # 0->2 is not an edge
    with pytest.raises(ValueError):
        validate(i, make_plan([(1, 1), (3, 2)]))  # wrong start


# --- instance construction ---------------------------------------------------

def test_instance_validation():
    with pytest.raises(ValueError):
        inst(Variant.MAPF, (0, 0), (1, 2))
    with pytest.raises(ValueError):
        inst(Variant.MAPF, (0, 1, 2, 3), (3, 2, 1, 0))  # k < n required
    # full occupancy fine for tokens
    assert inst(Variant.TSWAP, (0, 1, 2, 3), (3, 2, 1, 0)).k == 4
    with pytest.raises(ValueError):
        inst(Variant.TSWAP, (0, 5), (1, 0))


def test_random_instance_deterministic():
    g = make_grid(3, 3)
    a = random_instance(g, Variant.MAPF, 3, 7)
    b = random_instance(g, Variant.MAPF, 3, 7)
    assert (a.starts, a.goals) == (b.starts, b.goals)
    assert random_instance(g, Variant.MAPF, 3, 8).starts != a.starts or \
        random_instance(g, Variant.MAPF, 3, 8).goals != a.goals


def test_random_permutation_instance_support_is_connected_permutation():
    g = make_grid(4, 4)
    for seed in range(20):
        i = random_permutation_instance(g, Variant.TSWAP, 6, seed)
        assert set(i.starts) == set(i.goals)
        adj = effective_adjacency(i)
        # connected within the support
        seen = {i.starts[0]}
        stack = [i.starts[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert seen == set(i.starts)


# --- effective graph ---------------------------------------------------------

def test_effective_adjacency_restricts_tokens_only():
    i = inst(Variant.TSWAP, (0, 1), (1, 0))
    adj = effective_adjacency(i)
    assert adj[0] == (1,) and adj[1] == (0,) and adj[2] == ()
    m = inst(Variant.MAPF, (0, 1), (1, 0))
    assert effective_adjacency(m) == m.graph.adj


def test_effective_distances_inf_outside_support():
    i = inst(Variant.TSWAP, (0, 1), (2, 1))
    d = effective_distances(i)
    assert d(0, 1) == 1 and d(0, 2) >= INF


def test_effective_distance_equals_graph_distance_for_mapf():
    g = make_star(5)
    i = Instance(g, Variant.MAPF, (1, 2), (3, 4))
    d = effective_distances(i)
    assert d(1, 3) == 2 and d(1, 0) == 1
