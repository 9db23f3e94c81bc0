from collections import deque

import numpy as np
import pytest

from goalgen.errors import NumericalError, ValidationError
from goalgen.features import Colour, ObjectFeatures, Shape
from goalgen.maze import (
    Action,
    MazeGrid,
    Outcome,
    _connected,
    distance_field,
    generate_maze,
    initial_state,
    observe,
    step,
)

RC = ObjectFeatures(Colour.RED, Shape.CROSS)
BD = ObjectFeatures(Colour.BLUE, Shape.DIAMOND)


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
    grid = generate_maze(0, [RC], wall_prob=0.0)
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
    g1 = generate_maze(1234, [RC, BD])
    g2 = generate_maze(1234, [RC, BD])
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


def test_generation_budget_exhaustion():
    with pytest.raises(NumericalError, match="attempts"):
        generate_maze(0, [RC], wall_prob=0.999, max_attempts=20)


def test_object_count_validated():
    with pytest.raises(ValidationError):
        generate_maze(0, [])


def test_reaching_goal_pays_one_and_terminates():
    state = initial_state(corridor_grid(goal_col=1))
    state, reward = step(state, Action.RIGHT)
    assert reward == 1.0
    assert state.terminated
    assert state.outcome is Outcome.GOAL_A


def test_unrewarded_goal_contact_pays_step_penalty():
    state = initial_state(corridor_grid(goal_col=1), rewarded=False)
    state, reward = step(state, Action.RIGHT)
    assert reward == -0.1
    assert state.outcome is Outcome.GOAL_A


def test_wall_blocks_movement():
    walls = np.zeros((8, 8), dtype=bool)
    walls[0, 1] = True
    grid = MazeGrid(walls=walls, agent_pos=(0, 0), goal_pos=(0, 7), goal=RC)
    state, reward = step(initial_state(grid), Action.RIGHT)
    assert state.grid.agent_pos == (0, 0)
    assert reward == -0.1
    assert not state.terminated


def test_edge_blocks_movement():
    state, reward = step(initial_state(corridor_grid()), Action.UP)
    assert state.grid.agent_pos == (0, 0)
    assert reward == -0.1


def test_horizon_terminates_at_exactly_200():
    state = initial_state(corridor_grid())
    for i in range(200):
        assert not state.terminated
        state, reward = step(state, Action.DOWN if i % 2 else Action.UP)
    assert state.terminated
    assert state.step_count == 200
    assert state.outcome is Outcome.NONE
    assert reward == -0.1


def test_step_after_termination_rejected():
    state = initial_state(corridor_grid(goal_col=1))
    state, _ = step(state, Action.RIGHT)
    with pytest.raises(ValidationError, match="terminated"):
        step(state, Action.LEFT)


def test_return_accounting_identity():
    # reaching the goal on step t yields return 1 - 0.1 * (t - 1)
    for goal_col in (1, 3, 7):
        state = initial_state(corridor_grid(goal_col=goal_col))
        total = 0.0
        steps = 0
        while not state.terminated:
            state, reward = step(state, Action.RIGHT)
            total += reward
            steps += 1
        assert steps == goal_col
        assert total == pytest.approx(1.0 - 0.1 * (steps - 1))


def test_distractor_contact_terminates_with_goal_b():
    grid = corridor_grid(goal_col=7, distractor=BD, distractor_col=1)
    state, reward = step(initial_state(grid), Action.RIGHT)
    assert state.terminated
    assert state.outcome is Outcome.GOAL_B
    assert reward == -0.1


def test_observe_closer_sign():
    grid = corridor_grid(goal_col=3)
    obs = observe(initial_state(grid))
    phi = [0, 0, 0, 1, 0, 1, 0, 0, 0, 0]
    assert obs[Action.RIGHT.value, :10].tolist() == phi
    assert obs[Action.RIGHT.value, 10:].tolist() == [0.0] * 10
    # moving left is blocked by the edge: distance unchanged, no signal
    assert obs[Action.LEFT.value].tolist() == [0.0] * 20


def test_observe_farther_sign():
    walls = np.zeros((8, 8), dtype=bool)
    grid = MazeGrid(walls=walls, agent_pos=(4, 4), goal_pos=(4, 6), goal=RC)
    obs = observe(initial_state(grid))
    phi = [0, 0, 0, 1, 0, 1, 0, 0, 0, 0]
    assert obs[Action.LEFT.value, 10:].tolist() == phi
    assert obs[Action.LEFT.value, :10].tolist() == [0.0] * 10


def test_observe_two_objects_sum():
    walls = np.zeros((8, 8), dtype=bool)
    grid = MazeGrid(
        walls=walls,
        agent_pos=(4, 4),
        goal_pos=(4, 7),
        goal=RC,
        distractor_pos=(4, 6),
        distractor=BD,
    )
    obs = observe(initial_state(grid))
    expected = np.zeros(10)
    expected[[3, 5]] += 1  # red cross
    expected[[1, 6]] += 1  # blue diamond
    assert obs[Action.RIGHT.value, :10].tolist() == expected.tolist()


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
        assert _connected(walls) is connected
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


def test_generate_maze_any_size():
    for size in (2, 3, 12):
        grid = generate_maze(size, [RC], wall_prob=0.3, size=size)
        assert grid.walls.shape == (size, size)
        assert oracle_connected(grid.walls)
