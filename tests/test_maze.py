import hashlib
from collections import deque

import numpy as np
import pytest

import goalgen.agent as agent_mod
import goalgen.maze as maze_mod
from conftest import run_episode, steer_weights
from goalgen.errors import NumericalError, ValidationError
from goalgen.features import Colour, ObjectFeatures, Shape
from goalgen.maze import (
    HORIZON,
    MazeGrid,
    _connected,
    _vacant_bits,
    distance_field,
    distance_fields,
    flood_layers,
    generate_maze,
    sample_maze,
    sample_mazes,
)

RC = ObjectFeatures(Colour.RED, Shape.CROSS)
BD = ObjectFeatures(Colour.BLUE, Shape.DIAMOND)
PHI_RC = [0, 0, 0, 1, 0, 1, 0, 0, 0, 0]
PHI_BD = [0, 1, 0, 0, 0, 0, 1, 0, 0, 0]

# Deterministic policies: every move closer to the red cross, every move
# away from it, and every blocked move (it scores 0, above -800).
TOWARD = steer_weights(RC, 400.0, -400.0)
FLEE = steer_weights(RC, -400.0, 400.0)
STAY = steer_weights(RC, -400.0, -400.0)
# The zero policy picks each action with probability 0.25; under this seed
# its first move is RIGHT (the first uniform is at least 0.75).
RIGHT_FIRST_SEED = next(s for s in range(64) if np.random.default_rng(s).random() >= 0.75)


def oracle_distance_field(walls, target):
    """Reference queue BFS: distance to ``target``, -1 on walls and unreachable cells."""
    size = walls.shape[0]
    dist = np.full((size, size), -1, dtype=np.int32)
    dist[target] = 0
    queue = deque([target])
    while queue:
        r, c = queue.popleft()
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < size and 0 <= nc < size and not walls[nr, nc] and dist[nr, nc] < 0:
                dist[nr, nc] = dist[r, c] + 1
                queue.append((nr, nc))
    return dist


def oracle_connected(walls):
    vacant = np.argwhere(~walls)
    if len(vacant) == 0:
        return False
    return bool((oracle_distance_field(walls, tuple(vacant[0]))[~walls] >= 0).all())


def corridor_grid(goal_col=7, agent_col=0, distractor=None, distractor_col=None):
    """Open 8x8 grid with everything on row 0."""
    walls = np.zeros((8, 8), dtype=bool)
    return MazeGrid(
        walls=walls,
        agent_pos=(0, agent_col),
        goal_pos=(0, goal_col),
        goal=RC,
        distractor_pos=(0, distractor_col) if distractor else None,
        distractor=distractor,
    )


def test_zero_wall_probability_always_accepts():
    grid = generate_maze(np.random.default_rng(0), [RC], wall_prob=0.0)
    assert not grid.walls.any()


def test_connectivity_of_generated_mazes():
    rng = np.random.default_rng(0)
    for _ in range(200):
        grid = generate_maze(rng, [RC, BD])
        vacant = ~grid.walls
        dist = distance_field(grid.walls, grid.goal_pos)
        # BFS from the goal reaches every vacant cell
        assert (dist[vacant] >= 0).all()


def test_same_seed_reproduces_grid():
    g1 = generate_maze(np.random.default_rng(1234), [RC, BD])
    g2 = generate_maze(np.random.default_rng(1234), [RC, BD])
    assert (g1.walls == g2.walls).all()
    assert g1.agent_pos == g2.agent_pos
    assert g1.goal_pos == g2.goal_pos
    assert g1.distractor_pos == g2.distractor_pos


def test_placement_distinct_cells():
    rng = np.random.default_rng(5)
    for _ in range(50):
        grid = generate_maze(rng, [RC, BD])
        cells = {grid.agent_pos, grid.goal_pos, grid.distractor_pos}
        assert len(cells) == 3
        for cell in cells:
            assert not grid.walls[cell]


def test_generation_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(maze_mod, "MAX_GENERATION_ATTEMPTS", 20)
    with pytest.raises(NumericalError, match="in 20 attempts"):
        generate_maze(np.random.default_rng(0), [RC], wall_prob=0.999)


def test_object_count_validated():
    with pytest.raises(ValidationError):
        generate_maze(np.random.default_rng(0), [])


def test_reaching_goal_pays_one_and_terminates():
    assert run_episode(corridor_grid(goal_col=1), TOWARD)[:2] == (0, 1.0)


def test_return_accounting_identity():
    # reaching the goal on move t returns 1 - 0.1 * (t - 1)
    for goal_col in (1, 4, 7):
        outcome, ret, _ = run_episode(corridor_grid(goal_col=goal_col), TOWARD)
        assert outcome == 0
        assert abs(ret - (1.0 - 0.1 * (goal_col - 1))) < 1e-12


def test_distractor_contact_terminates_with_goal_b():
    grid = corridor_grid(goal_col=7, distractor=BD, distractor_col=1)
    assert run_episode(grid, TOWARD)[:2] == (1, -0.1)


def test_wall_blocks_movement():
    # Walls on two sides: the only blocked moves run into them, so the
    # agent stands next to the goal until the horizon.
    walls = np.zeros((8, 8), dtype=bool)
    walls[2, 3] = walls[3, 2] = True
    grid = MazeGrid(walls=walls, agent_pos=(3, 3), goal_pos=(3, 4), goal=RC)
    outcome, ret, _ = run_episode(grid, STAY)
    assert outcome == -1
    assert abs(ret + 20.0) < 1e-12
    # A wall between agent and goal forces the 4-move detour below it.
    walls = np.zeros((8, 8), dtype=bool)
    walls[0, 1] = True
    grid = MazeGrid(walls=walls, agent_pos=(0, 0), goal_pos=(0, 2), goal=RC)
    outcome, ret, _ = run_episode(grid, TOWARD)
    assert outcome == 0
    assert abs(ret - 0.7) < 1e-12


def test_edge_blocks_movement():
    outcome, ret, _ = run_episode(corridor_grid(goal_col=1), STAY)
    assert outcome == -1
    assert abs(ret + 20.0) < 1e-12


def test_horizon_terminates_at_exactly_200():
    # Fleeing the goal ends in the corner (0, 0), where only the blocked
    # moves do not approach it; 200 moves of -0.1 return -20.
    walls = np.zeros((8, 8), dtype=bool)
    grid = MazeGrid(walls=walls, agent_pos=(4, 4), goal_pos=(5, 5), goal=RC)
    for seed in range(5):
        outcome, ret, _ = run_episode(grid, FLEE, seed)
        assert outcome == -1
        assert abs(ret + 20.0) < 1e-12


def test_observe_closer_sign():
    # One move under the zero policy: the score-function gradient is
    # 0.75 * obs[RIGHT] - 0.25 * (obs[UP] + obs[DOWN] + obs[LEFT]). RIGHT
    # goes closer to the goal, DOWN farther, UP and LEFT are blocked.
    outcome, ret, grad = run_episode(corridor_grid(goal_col=1), [0.0] * 20, RIGHT_FIRST_SEED)
    assert (outcome, ret) == (0, 1.0)
    assert grad == [0.75 * x for x in PHI_RC] + [-0.25 * x for x in PHI_RC]


def test_observe_farther_sign(monkeypatch):
    # Move codes 3 * c0 + c1, with c_o 0, 1 or 2 as the move goes closer to,
    # no nearer or farther from object o; both edge moves are blocked. The
    # open maze has the goal at (0, 3), the distractor at (3, 0) and the
    # agent at (0, 0).
    calls = []

    def open_maze(seeds, n_objects, wall_prob, uniforms):
        calls.append(len(list(seeds)))
        uniforms[:] = 0.5
        return np.array([2**64 - 1], dtype=np.uint64), np.array([[3, 24, 0]])

    monkeypatch.setattr(agent_mod, "sample_mazes", open_maze)
    start, codes, obj_at, _ = agent_mod._maze_pass([(0, 0)], [(0, 1)], 0, 0.2)
    assert calls == [1]
    # UP, DOWN, LEFT, RIGHT
    assert codes[start[0]].tolist() == [4, 3 * 2 + 0, 4, 3 * 0 + 2]
    assert obj_at[[3, 24, 0]].tolist() == [0, 1, -1]


def test_observe_two_objects_sum():
    # RIGHT reaches the goal and goes closer to the distractor behind it;
    # every other move goes farther from both.
    walls = np.zeros((8, 8), dtype=bool)
    grid = MazeGrid(
        walls=walls,
        agent_pos=(4, 4),
        goal_pos=(4, 5),
        goal=RC,
        distractor_pos=(4, 6),
        distractor=BD,
    )
    _, _, grad = run_episode(grid, [0.0] * 20, RIGHT_FIRST_SEED)
    both = np.add(PHI_RC, PHI_BD)
    assert grad == [*(0.75 * both), *(-0.75 * both)]


def test_distance_field_rejects_wall_target():
    walls = np.zeros((8, 8), dtype=bool)
    walls[2, 2] = True
    with pytest.raises(ValidationError):
        distance_field(walls, (2, 2))


def test_bitboard_bfs_matches_queue_oracle():
    rng = np.random.default_rng(2605)
    disconnected = 0
    for i in range(3000):
        size = i % 12 + 1
        wall_prob = (i // 12) % 7 / 10  # 0.0 .. 0.6
        walls = rng.random((size, size)) < wall_prob
        connected = oracle_connected(walls)
        assert _connected(_vacant_bits(walls), size) is connected
        disconnected += not connected
        vacant = np.argwhere(~walls)
        if len(vacant) == 0:
            continue
        target = tuple(vacant[rng.integers(len(vacant))])  # np.int64 indices
        got = distance_field(walls, target)
        want = oracle_distance_field(walls, target)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert disconnected > 300  # unreachable pockets were exercised


@pytest.mark.parametrize("wall_prob", [0.0, 0.2, 0.45])
def test_batched_floods_match_scalar_oracle(wall_prob):
    # Free walls, not sampled mazes, so disconnected mazes and unreachable
    # cells occur; the first board is all walls.
    rng = np.random.default_rng(int(100 * wall_prob))
    walls = rng.random((5000, 8, 8)) < wall_prob
    walls[0] = True
    vacant = np.array([_vacant_bits(w) for w in walls], dtype=np.uint64)
    assert _connected(vacant).tolist() == [oracle_connected(w) for w in walls]
    has_two = (~walls).reshape(5000, 64).sum(axis=1) >= 2
    targets = np.array(
        [rng.choice(np.flatnonzero(~w), 2, replace=False) for w in walls[has_two]]
    )
    got = distance_fields(vacant[has_two], targets)
    assert got.dtype == np.int8 and got.shape == (len(targets), 2, 64)
    for w, cells, fields in zip(walls[has_two], targets, got):
        for cell, field in zip(cells, fields):
            want = distance_field(w, divmod(int(cell), 8))
            assert field.tolist() == want.ravel().tolist()
    # Cells reading -1 that are no walls: unreachable ones were exercised.
    unreachable = (got == -1).sum() - 2 * walls[has_two].sum()
    assert (unreachable > 0) == (wall_prob > 0)


def test_flood_of_boards_matches_flood_of_each_board():
    # Boards of different depths in one array: an all-wall board, a single
    # vacant cell, an open board, a serpentine and free walls.
    rng = np.random.default_rng(2607)
    walls = rng.random((8, 8, 8)) < 0.35
    walls[0] = True
    walls[1] = True
    walls[1, 3, 4] = False
    walls[2] = False
    walls[3] = False
    walls[3, 1::4, :7] = True
    walls[3, 3::4, 1:] = True
    vacant = np.array([_vacant_bits(w) for w in walls], dtype=np.uint64)
    start = vacant & -vacant
    want = [list(flood_layers(s, v)) for s, v in zip(start.tolist(), vacant.tolist())]
    got = list(flood_layers(start, vacant))
    assert len(got) == max(map(len, want)) and len({len(w) for w in want}) > 3
    for m, layers in enumerate(want):
        # A board that stopped growing repeats its last layer.
        padded = layers + layers[-1:] * (len(got) - len(layers))
        assert [int(layer[m]) for layer in got] == padded


# At wall_prob 0.9 some draws leave a single vacant cell, which is
# connected but too small for an object and the agent.
@pytest.mark.parametrize("n_objects, wall_prob", [(1, 0.45), (1, 0.9), (2, 0.2), (2, 0.45)])
def test_sample_mazes_draws_what_sample_maze_draws(n_objects, wall_prob):
    seeds = [[0x6D617A65, seed] for seed in range(400)]
    uniforms = np.empty((len(seeds), HORIZON))
    vacant, cells = sample_mazes(seeds, n_objects, wall_prob, uniforms)
    for seed, board, flat, drawn in zip(seeds, vacant, cells, uniforms):
        rng = np.random.default_rng(seed)
        _, want_vacant, want_cells = sample_maze(rng, n_objects, wall_prob)
        assert (int(board), flat.tolist()) == (want_vacant, want_cells)
        assert drawn.tolist() == rng.random(HORIZON).tolist()


def test_generate_maze_any_size():
    for size in (2, 3, 12):
        grid = generate_maze(np.random.default_rng(size), [RC], wall_prob=0.3, size=size)
        assert grid.walls.shape == (size, size)
        assert oracle_connected(grid.walls)


# sha256 of the walls and cells of 500 generate_maze calls, recorded from the
# maze code before it shared one sampler with training. Any change to the
# draws, the acceptance test or the placement changes it.
PINNED_MAZE_DIGEST = "d2e99ead8c1c69b78eb9af66cded680ab99565bb36c4a2bebf87296004da4158"


def test_maze_streams_match_pinned_digest():
    digest = hashlib.sha256()
    for seed in range(50):
        rng = np.random.default_rng([0x6D617A65, seed])
        for i in range(10):
            objects = [RC, BD] if i % 2 else [RC]
            grid = generate_maze(rng, objects, wall_prob=(0.0, 0.2, 0.35, 0.5, 0.2)[i % 5])
            digest.update(grid.walls.tobytes())
            digest.update(f"{grid.agent_pos}{grid.goal_pos}{grid.distractor_pos};".encode())
    assert digest.hexdigest() == PINNED_MAZE_DIGEST


def test_flood_layer_codes_match_distance_differences():
    # The training episode's move codes: 3 * c0 + c1 (c0 alone for one
    # object), c_o = 1 + sign(distance after - distance before).
    rng = np.random.default_rng(2606)
    for i in range(2000):
        n_obj = 1 + i % 2
        walls, vacant, cells = sample_maze(rng, n_obj, wall_prob=i % 6 / 10)
        objects = cells[:n_obj]
        fields = [distance_field(walls, divmod(o, 8)).ravel().tolist() for o in objects]
        layers = [list(flood_layers(1 << o, vacant, 8)) for o in objects]
        for cell in np.flatnonzero(~walls).tolist():
            dist = [field[cell] for field in fields]
            if 0 in dist:
                continue  # an object's cell ends the episode
            nearer = [lay[d - 1] for lay, d in zip(layers, dist)]
            targets, codes = agent_mod._move_codes(cell, vacant, nearer)
            for (dr, dc), t, code in zip(((-1, 0), (1, 0), (0, -1), (0, 1)), targets, codes):
                r, c = divmod(cell, 8)
                nr, nc = r + dr, c + dc
                if 0 <= nr < 8 and 0 <= nc < 8:
                    assert t == nr * 8 + nc
                    there = nr * 8 + nc if not walls[nr, nc] else cell
                else:
                    assert t == -1
                    there = cell
                want = 0
                for field, d in zip(fields, dist):
                    want = 3 * want + 1 + (field[there] > d) - (field[there] < d)
                assert code == want
