"""Dataset loaders and synthetic graph generators for the benchmark driver."""

from __future__ import annotations

import csv
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyData, ParseError


@dataclass
class SnapGraph:
    """Compacted undirected simple graph.

    ``adjacency[v]`` is the sorted neighbor list of compact vertex v;
    ``original_ids[v]`` recovers the id used in the source file.
    """

    adjacency: list[list[int]]
    original_ids: list[int]


def ingest_snap(path) -> SnapGraph:
    """Parse a whitespace edge list; '#' lines are comments.

    Self-loops are dropped and duplicate edges collapse.  Vertex ids are
    compacted to 0..|V|-1 in order of first appearance.  A file left with
    no edge raises :class:`EmptyData`.
    """
    compact: dict[int, int] = {}
    original: list[int] = []
    edges: set[tuple[int, int]] = set()

    def vertex(raw: int) -> int:
        v = compact.get(raw)
        if v is None:
            v = compact[raw] = len(original)
            original.append(raw)
        return v

    with open(path) as fh:
        for no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected two vertex ids", line_no=no)
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("vertex ids must be integers", line_no=no) from None
            if a == b:
                continue
            u, v = vertex(a), vertex(b)
            edges.add((min(u, v), max(u, v)))
    if not edges:
        raise EmptyData("edge list holds no edge between two distinct vertices")

    adjacency: list[list[int]] = [[] for _ in original]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for nb in adjacency:
        nb.sort()
    return SnapGraph(adjacency, original)


@dataclass
class MovieData:
    """Centered rating-deviation vectors, one row per kept movie."""

    vectors: np.ndarray
    movie_ids: list[int]
    user_ids: list[int]
    global_mean: float


_MOVIE_HEADER = ["userId", "movieId", "rating", "timestamp"]


def ingest_movielens(path, max_movies: int | None = None,
                     max_users: int | None = None) -> MovieData:
    """Parse a ratings CSV into deviation vectors r - global mean.

    The header must be exactly ``userId,movieId,rating,timestamp``.  The
    global mean is taken over every parsed rating, before any truncation to
    the most-rated movies and most-active users.
    """
    ratings: list[tuple[int, int, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyData("ratings file is empty")
        if [h.strip() for h in header] != _MOVIE_HEADER:
            raise ParseError(f"unexpected header {header!r}", line_no=1)
        for no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError("expected 4 comma-separated fields", line_no=no)
            try:
                ratings.append((int(row[0]), int(row[1]), float(row[2])))
            except ValueError:
                raise ParseError("bad user/movie/rating value", line_no=no) from None
    if not ratings:
        raise EmptyData("no rating rows")

    mean = sum(r for _, _, r in ratings) / len(ratings)
    movie_count = Counter(m for _, m, _ in ratings)
    user_count = Counter(u for u, _, _ in ratings)

    def keep(counter: Counter, limit: int | None) -> list[int]:
        ranked = sorted(counter, key=lambda i: (-counter[i], i))
        return ranked if limit is None else ranked[:limit]

    movies = keep(movie_count, max_movies)
    users = keep(user_count, max_users)
    m_index = {m: i for i, m in enumerate(movies)}
    u_index = {u: i for i, u in enumerate(users)}

    vectors = np.zeros((len(movies), len(users)))
    for u, m, r in ratings:
        mi, ui = m_index.get(m), u_index.get(u)
        if mi is not None and ui is not None:
            vectors[mi, ui] = r - mean
    return MovieData(vectors, movies, users, mean)


def gnp_adjacency(n: int, p: float, seed: int = 0) -> list[list[int]]:
    """Erdos-Renyi G(n, p) adjacency, seeded."""
    rng = random.Random(seed)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adjacency[i].append(j)
                adjacency[j].append(i)
    return adjacency


def preferential_adjacency(n: int, attach: int = 3, seed: int = 0) -> list[list[int]]:
    """Degree-proportional attachment graph with a heavy-tailed degree curve.

    Starts from a clique on ``attach`` vertices; every later vertex links to
    ``attach`` distinct earlier vertices sampled proportionally to degree,
    as ``random.Random(seed).choice`` over the list that holds each vertex
    once per edge end picks them.  CPython's ``choice(seq)`` is
    ``seq[_randbelow(len(seq))]``, and ``_randbelow(b)`` redraws
    ``getrandbits(k)``, k the bit length of b, until it falls below b; both
    are inlined here.  Every row is sorted as it is built: a vertex links
    to its sorted earlier targets, then to later vertices as they come.
    """
    if attach < 1 or n < attach:
        raise ValueError("need n >= attach >= 1")
    getrandbits = random.Random(seed).getrandbits
    adjacency: list[list[int]] = [[] for _ in range(n)]
    repeated: list[int] = []  # each vertex once per edge end
    for i in range(attach):
        for j in range(i + 1, attach):
            adjacency[i].append(j)
            adjacency[j].append(i)
            repeated += (i, j)
    if attach == 1:
        repeated.append(0)

    for v in range(attach, n):
        size = len(repeated)
        k = size.bit_length()
        want = min(attach, v)
        targets: set[int] = set()
        while len(targets) < want:
            r = getrandbits(k)
            while r >= size:
                r = getrandbits(k)
            targets.add(repeated[r])
        row = adjacency[v]
        for u in sorted(targets):
            adjacency[u].append(v)
            row.append(u)
            repeated += (u, v)
    return adjacency
