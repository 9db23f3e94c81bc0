"""Procedurally generated 8x8 mazes and their BFS distance fields.

``sample_maze`` draws one maze: wall cells are sampled independently (p =
0.2 by default) and the map is rejection-sampled until every vacant cell is
reachable from every other. The agent, the goal and an optional distractor
then take distinct vacant cells. ``generate_maze`` and training call it; the
reward and horizon constants live here, and episodes are stepped in
``agent``. Evaluation builds a pass's mazes together (``sample_mazes``):
each maze keeps its own Generator and makes ``sample_maze``'s calls in
order, and rejection sampling runs in rounds that redraw only the rejected
mazes.

Connectivity and distance fields run breadth-first search on bitboards: bit
``r * size + c`` is set for vacant cell (r, c). One BFS layer is five shifts
and masks: a shift by ``size`` moves a row down or up, a shift by 1 moves a
column right or left, and column masks drop the bits that would wrap onto
the next or previous row. One flood, ``flood_layers``, serves a single board
held in a Python int, of any size, and numpy uint64 arrays of
GRID_SIZE x GRID_SIZE boards."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .features import ObjectFeatures

GRID_SIZE = 8
HORIZON = 200
STEP_PENALTY = -0.1
GOAL_REWARD = 1.0
WALL_PROBABILITY = 0.2
MAX_GENERATION_ATTEMPTS = 10_000

# Observation basis: per action, the summed feature vectors of objects the
# action moves strictly closer to (block 0) and strictly farther from
# (block 1), by BFS distance.
N_OBSERVATION_FEATURES = 20


@dataclass(frozen=True)
class MazeGrid:
    """A generated maze: walls plus placed agent and object(s)."""

    walls: np.ndarray  # bool (8, 8)
    agent_pos: tuple[int, int]
    goal_pos: tuple[int, int]
    goal: ObjectFeatures
    distractor_pos: tuple[int, int] | None = None
    distractor: ObjectFeatures | None = None

    @property
    def objects(self) -> list[ObjectFeatures]:
        objs = [self.goal]
        if self.distractor is not None:
            objs.append(self.distractor)
        return objs

    @property
    def object_cells(self) -> list[tuple[int, int]]:
        cells = [self.goal_pos]
        if self.distractor_pos is not None:
            cells.append(self.distractor_pos)
        return cells


def _vacant_bits(walls: np.ndarray) -> int:
    """Bitboard of the vacant cells: bit ``r * size + c`` is set for vacant (r, c)."""
    wall_bits = int.from_bytes(
        np.packbits(walls, axis=None, bitorder="little").tobytes(), "little"
    )
    return ((1 << walls.size) - 1) & ~wall_bits


def _first_column(size: int) -> int:
    """Bits of the first column: 1 + 2**size + 2**(2 * size) + ... A right
    move never lands on the first column, a left move never on the last."""
    return ((1 << size * size) - 1) // ((1 << size) - 1)


def flood_layers(start, vacant, size: int = GRID_SIZE):
    """Breadth-first flood fill over bitboards, one layer at a time.

    Yields, for d = 0, 1, ..., every vacant cell within ``d`` moves of the
    cells in ``start``, and stops after the layer at which nothing grows.
    Boards are Python ints, or uint64 arrays of GRID_SIZE boards where
    ``vacant`` broadcasts against ``start``; a board that stops growing
    repeats its last layer until none grows.
    """
    first_column = _first_column(size)
    if isinstance(vacant, int):
        same = operator.eq
    else:
        first_column, same = np.uint64(first_column), np.array_equal
    enter_right = vacant & ~first_column
    enter_left = vacant & ~(first_column << size - 1)
    reached = start
    while True:
        yield reached
        grown = (
            reached
            | ((reached << size | reached >> size) & vacant)
            | (reached << 1 & enter_right)
            | (reached >> 1 & enter_left)
        )
        if same(grown, reached):
            return
        reached = grown


def _connected(vacant, size: int = GRID_SIZE):
    """Whether the vacant cells of a bitboard, or of each board in a uint64
    array, are not empty and all mutually reachable by 4-neighbour moves."""
    for reached in flood_layers(vacant & -vacant, vacant, size):
        pass
    return (vacant != 0) & (reached == vacant)


def _out_of_attempts(needed: int, wall_prob: float) -> NumericalError:
    """What both samplers raise when no draw within the bound was accepted."""
    return NumericalError(
        f"no connected maze with {needed} vacant cells found in "
        f"{MAX_GENERATION_ATTEMPTS} attempts (wall_prob={wall_prob})"
    )


def distance_field(walls: np.ndarray, target: tuple[int, int]) -> np.ndarray:
    """BFS shortest-path distance from every vacant cell to ``target``.

    Floods the vacant-cell bitboard (bit ``r * size + c`` for cell (r, c))
    from the target's bit and writes step ``d`` into the cells first reached
    at step ``d``. Wall cells (and anything unreachable) get -1. Returns an
    int32 (size, size) array.
    """
    size = walls.shape[0]
    if walls[target]:
        raise ValidationError(f"distance target {target} is a wall cell")
    # A numpy integer index would overflow the shift below.
    r, c = int(target[0]), int(target[1])
    flat = [-1] * (size * size)
    previous = 0
    layers = flood_layers(1 << (r * size + c), _vacant_bits(walls), size)
    for d, reached in enumerate(layers):
        new = reached & ~previous
        previous = reached
        while new:
            low = new & -new
            flat[low.bit_length() - 1] = d
            new ^= low
    return np.array(flat, dtype=np.int32).reshape(size, size)


def sample_maze(
    rng: np.random.Generator,
    n_objects: int,
    wall_prob: float = WALL_PROBABILITY,
    size: int = GRID_SIZE,
) -> tuple[np.ndarray, int, list[int]]:
    """Sample a connected maze and distinct vacant cells for objects and agent.

    Returns the walls, the vacant-cell bitboard and the flat cells ``r *
    size + c`` of the objects in order, then the agent.
    """
    needed = n_objects + 1
    for _ in range(MAX_GENERATION_ATTEMPTS):
        walls = rng.random((size, size)) < wall_prob
        vacant = _vacant_bits(walls)
        n_vacant = vacant.bit_count()
        if n_vacant < needed or not _connected(vacant, size):
            continue
        chosen = rng.choice(n_vacant, size=needed, replace=False)
        return walls, vacant, np.flatnonzero(~walls)[chosen].tolist()
    raise _out_of_attempts(needed, wall_prob)


def _cells(boards: np.ndarray) -> np.ndarray:
    """The bits of uint64 GRID_SIZE bitboards, (..., GRID_SIZE**2) uint8 in
    cell order."""
    as_bytes = boards.astype("<u8")[..., None].view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, bitorder="little")


def distance_fields(vacant: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``distance_field`` for many GRID_SIZE mazes and targets at once.

    ``vacant`` holds the mazes' uint64 vacant-cell bitboards, (mazes,), and
    ``targets`` their vacant flat target cells r * GRID_SIZE + c, (mazes,
    k). A cell's distance is the number of cumulative flood layers that
    miss it. Returns int8 (mazes, k, GRID_SIZE**2) distances in flat cell
    order; walls and unreachable cells get -1.
    """
    start = np.uint64(1) << targets.astype(np.uint64)
    missed = np.zeros(targets.shape + (GRID_SIZE**2,), dtype=np.int8)
    for reached in flood_layers(start, vacant[:, None]):
        missed += _cells(~reached)
    missed[_cells(reached) == 0] = -1
    return missed


def sample_mazes(seeds, n_objects: int, wall_prob: float, uniforms: np.ndarray):
    """``sample_maze`` for many GRID_SIZE mazes at once, each on its own stream.

    Maze m draws from ``np.random.default_rng(seed)``, with the m-th of the
    ``seeds``, what ``sample_maze`` draws and in the same order, and then
    fills ``uniforms[m]``; the Generator is dropped after that. Rejection
    sampling runs in rounds: every pending maze draws its walls, one flood
    tests them all, and only the rejected mazes draw again.

    Returns the (mazes,) uint64 vacant-cell bitboards and the (mazes,
    n_objects + 1) flat cells of the objects in order, then the agent.
    """
    needed = n_objects + 1
    pending = {m: np.random.default_rng(seed) for m, seed in enumerate(seeds)}
    vacant = np.zeros(len(pending), dtype=np.uint64)
    cells = np.zeros((len(pending), needed), dtype=np.intp)
    for _ in range(MAX_GENERATION_ATTEMPTS):
        if not pending:
            break
        order = np.fromiter(pending, dtype=np.intp, count=len(pending))
        walls = np.empty((len(order), GRID_SIZE**2), dtype=bool)
        draws = np.empty(GRID_SIZE**2)
        for row, rng in zip(walls, pending.values()):
            rng.random(out=draws)
            np.less(draws, wall_prob, out=row)
        is_vacant = ~walls
        boards = np.packbits(is_vacant, axis=1, bitorder="little").view("<u8")[:, 0]
        accepted = (is_vacant.sum(axis=1) >= needed) & _connected(boards)
        vacant[order[accepted]] = boards[accepted]
        for m, row in zip(order[accepted].tolist(), is_vacant[accepted]):
            rng = pending.pop(m)
            free = np.flatnonzero(row)
            cells[m] = free[rng.choice(len(free), size=needed, replace=False)]
            rng.random(out=uniforms[m])
    if pending:
        raise _out_of_attempts(needed, wall_prob)
    return vacant, cells


def generate_maze(
    rng: np.random.Generator,
    objects: list[ObjectFeatures],
    wall_prob: float = WALL_PROBABILITY,
    size: int = GRID_SIZE,
) -> MazeGrid:
    """Sample a connected maze and place objects and agent in distinct vacant cells."""
    if not 1 <= len(objects) <= 2:
        raise ValidationError(f"expected 1 or 2 objects, got {len(objects)}")
    walls, _, flat = sample_maze(rng, len(objects), wall_prob, size)
    cells = [divmod(f, size) for f in flat]
    return MazeGrid(
        walls=walls,
        agent_pos=cells[-1],
        goal_pos=cells[0],
        goal=objects[0],
        distractor_pos=cells[1] if len(objects) == 2 else None,
        distractor=objects[1] if len(objects) == 2 else None,
    )
