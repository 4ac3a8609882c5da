"""The :class:`LogFrame` columnar container."""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from typing import TypeVar

import numpy as np

T = TypeVar("T")


class LogFrame:
    """An immutable table of equal-length numpy columns.

    String columns use ``object`` dtype (variable-length strings),
    numeric columns use native dtypes.  All transforming operations
    return new frames; columns are shared, never copied, unless an
    operation must materialize a subset.

    Each frame memoizes values derived from its columns
    (:meth:`memoized`), chiefly the (dictionary, codes) factorization
    of the columns it has grouped by (:meth:`factorize`).  Every
    transforming operation builds a new frame with an empty memo, so
    codes can never outlive the column they were computed from.  The
    memo is not part of the pickled state.
    """

    def __init__(self, columns: dict[str, np.ndarray]):
        if not columns:
            raise ValueError("a LogFrame needs at least one column")
        lengths = {name: len(array) for name, array in columns.items()}
        distinct = set(lengths.values())
        if len(distinct) != 1:
            raise ValueError(f"column lengths differ: {lengths}")
        self._columns: dict[str, np.ndarray] = dict(columns)
        self._length = distinct.pop()
        self._memo: dict[Hashable, object] = {}

    def __getstate__(self) -> dict:
        return {"_columns": self._columns, "_length": self._length}

    def __setstate__(self, state: dict) -> None:
        self._columns = state["_columns"]
        self._length = state["_length"]
        self._memo = {}

    # -- basic protocol ------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    @property
    def column_names(self) -> list[str]:
        """Names of the frame's columns."""
        return list(self._columns)

    def col(self, name: str) -> np.ndarray:
        """The raw numpy array behind column *name*."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; have {sorted(self._columns)}"
            ) from None

    def __getitem__(self, key):
        """``frame[str]`` -> column; ``frame[mask or indices]`` -> frame."""
        if isinstance(key, str):
            return self.col(key)
        return self.take(key)

    # -- construction / transformation ----------------------------------

    def take(self, selector: np.ndarray | slice) -> "LogFrame":
        """Row subset by boolean mask, integer indices, or slice."""
        if isinstance(selector, np.ndarray) and selector.dtype == bool:
            if len(selector) != self._length:
                raise ValueError("boolean mask length mismatch")
        return LogFrame(
            {name: array[selector] for name, array in self._columns.items()}
        )

    def where(self, mask: np.ndarray) -> "LogFrame":
        """Alias of :meth:`take` for boolean masks (reads better)."""
        return self.take(mask)

    def select(self, names: Sequence[str]) -> "LogFrame":
        """Column subset."""
        return LogFrame({name: self.col(name) for name in names})

    def with_column(self, name: str, values: np.ndarray | Sequence) -> "LogFrame":
        """Return a frame with column *name* added or replaced."""
        array = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
        if len(array) != self._length:
            raise ValueError("new column length mismatch")
        columns = dict(self._columns)
        columns[name] = array
        return LogFrame(columns)

    def drop(self, *names: str) -> "LogFrame":
        """Return a frame without the given columns."""
        remaining = {k: v for k, v in self._columns.items() if k not in names}
        return LogFrame(remaining)

    def head(self, n: int) -> "LogFrame":
        """The first *n* rows."""
        return self.take(slice(0, n))

    def sort_values(self, name: str, descending: bool = False) -> "LogFrame":
        """Rows sorted by one column (stable: tied rows keep their
        input order in both directions)."""
        if descending:
            _, codes = self.factorize(name)
            order = np.argsort(-codes, kind="stable")
        else:
            order = np.argsort(self.col(name), kind="stable")
        return self.take(order)

    def sample(self, fraction: float, rng: np.random.Generator) -> "LogFrame":
        """Uniform random row sample without replacement.

        Mirrors the paper's D_sample construction (a 4 % random sample
        of D_full).
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        count = int(round(self._length * fraction))
        indices = rng.choice(self._length, size=count, replace=False)
        indices.sort()
        return self.take(indices)

    # -- aggregation -----------------------------------------------------

    def memoized(self, key: Hashable, compute: Callable[[], T]) -> T:
        """``compute()``, evaluated once per frame and *key*.

        For values derived from this frame's columns alone; *key* is
        conventionally the function that derives them.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def factorize(
        self, name: str, key: Callable | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dictionary-encode column *name*: ``(values, codes)``.

        Equal to ``np.unique(column, return_inverse=True)``: the sorted
        distinct values and, per row, the index of its value.  With
        *key*, each distinct value is mapped through ``key`` once and
        the result is the factorization of the mapped column (e.g.
        ``key=registered_domain`` groups hosts by domain).  Memoized
        per frame and ``(name, key)``.
        """
        return self.memoized(
            (LogFrame.factorize, name, key), lambda: self._encode(name, key)
        )

    def _encode(
        self, name: str, key: Callable | None
    ) -> tuple[np.ndarray, np.ndarray]:
        if key is None:
            return _factorize(self.col(name))
        values, codes = self.factorize(name)
        mapped = np.empty(len(values), dtype=object)
        mapped[:] = [key(value) for value in values.tolist()]
        mapped_values, mapped_codes = _factorize(mapped)
        return mapped_values, mapped_codes[codes]

    def value_counts(self, name: str) -> list[tuple[object, int]]:
        """Distinct values of a column with counts, most frequent first.

        Ties are broken by value so results are deterministic.
        """
        values, codes = self.factorize(name)
        counts = np.bincount(codes, minlength=len(values))
        # values are sorted, so a stable sort on count breaks ties by value
        order = np.argsort(-counts, kind="stable")
        return [(values[i], int(counts[i])) for i in order]

    def nunique(self, name: str) -> int:
        """Number of distinct values in a column."""
        return len(self.factorize(name)[0])

    def groupby(self, name: str) -> "GroupBy":
        """Group rows by one column (see :class:`GroupBy`)."""
        from repro.frame.groupby import GroupBy

        return GroupBy(self, name)

    # -- row access (small frames / tests) -------------------------------

    def iter_rows(self) -> Iterator[dict[str, object]]:
        """Iterate rows as dicts.  O(rows × columns): test-sized only."""
        names = list(self._columns)
        arrays = [self._columns[name] for name in names]
        for i in range(self._length):
            yield {name: array[i] for name, array in zip(names, arrays)}

    def row(self, index: int) -> dict[str, object]:
        """One row as a dict."""
        return {name: array[index] for name, array in self._columns.items()}

    def __repr__(self) -> str:
        return f"LogFrame({self._length} rows × {len(self._columns)} cols)"


def _factorize(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(column, return_inverse=True)``, computed for object
    columns by hashing instead of sorting the rows: only the distinct
    values are sorted (string cells repeat massively), and every row
    costs one C-level dict lookup."""
    if column.dtype != object:
        return np.unique(column, return_inverse=True)
    cells = column.tolist()
    distinct = sorted(dict.fromkeys(cells))
    code_of = {value: code for code, value in enumerate(distinct)}
    values = np.empty(len(distinct), dtype=object)
    values[:] = distinct
    codes = np.fromiter(
        map(code_of.__getitem__, cells), dtype=np.intp, count=len(cells)
    )
    return values, codes


def concat(frames: Iterable[LogFrame]) -> LogFrame:
    """Concatenate frames with identical column sets."""
    frames = list(frames)
    if not frames:
        raise ValueError("nothing to concatenate")
    first_names = set(frames[0].column_names)
    for frame in frames[1:]:
        if set(frame.column_names) != first_names:
            raise ValueError("frames have differing column sets")
    return LogFrame(
        {
            name: np.concatenate([frame.col(name) for frame in frames])
            for name in frames[0].column_names
        }
    )
