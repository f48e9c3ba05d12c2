"""The paper's decomposable rolling hash (a modified Adler checksum).

During recursive splitting the server would naively transmit one hash per
child block.  With a *decomposable* hash the client can recover the right
child's hash from the parent's hash (already transmitted in the previous
round) and the left child's hash, so only one hash per sibling pair needs
to be sent — roughly halving server-to-client map-construction traffic.

Construction
------------

Bytes are first passed through a fixed pseudo-random 16-bit substitution
table ``T`` (this is our "modification of the Adler checksum": it breaks up
the regularities of ASCII text that make the plain byte-sum collide).  For
a block ``x[0..L-1]`` the two components, both modulo ``2**16``, are::

    a(x) = sum(T[x[j]])
    b(x) = sum((L - j) * T[x[j]])

For a parent ``z = x || y`` with ``len(y) = Ly``::

    a(z) = a(x) + a(y)                       (composable)
    b(z) = b(x) + Ly * a(x) + b(y)

Both identities can be solved for either child, giving decomposability.
Because all arithmetic is modular with a power-of-two modulus, the
identities also hold on the *low* ``k`` bits of each component — the
"bit-prefix" decomposability the paper asks for — provided the ``a``
component is transmitted with at least as many bits as the ``b`` component
(the ``b`` identity consumes bits of ``a``).

The hash is rolling as well: sliding the window one byte updates ``a`` and
``b`` in constant time exactly like rsync's checksum.
"""

from __future__ import annotations

import functools
import random
from typing import NamedTuple

_MOD16 = 1 << 16
_MASK16 = _MOD16 - 1


class HashPair(NamedTuple):
    """The two 16-bit components of the decomposable hash."""

    a: int
    b: int


def component_widths(width: int) -> tuple[int, int]:
    """Split a packed hash ``width`` into (a_bits, b_bits).

    The ``a`` component gets the extra bit when ``width`` is odd because
    truncated decomposition of ``b`` consumes ``b_bits`` low bits of ``a``,
    which therefore must satisfy ``a_bits >= b_bits``.
    """
    if not 1 <= width <= 32:
        raise ValueError(f"width must be in [1, 32], got {width}")
    a_bits = (width + 1) // 2
    return a_bits, width - a_bits


@functools.lru_cache(maxsize=64)
def _substitution_table(seed: int) -> tuple[int, ...]:
    """The seeded substitution table, drawn once per seed.

    Every session of a collection update builds two hashers on the same
    seed; the table is a pure function of it, so it is drawn once.
    """
    rng = random.Random(seed)
    return tuple(rng.randrange(_MOD16) for _ in range(256))


class DecomposableAdler:
    """Rolling, composable and decomposable block hash.

    Parameters
    ----------
    seed:
        Seeds the byte substitution table.  Client and server must use the
        same seed (the protocol fixes it); different seeds give independent
        hash functions, which the retry-on-failure path exploits.
    """

    def __init__(
        self, seed: int = 0, table: "tuple[int, ...] | None" = None
    ) -> None:
        self._seed = seed
        if table is not None:
            table = tuple(table)
            if len(table) != 256:
                raise ValueError(f"table must have 256 entries, got {len(table)}")
            self.table: tuple[int, ...] = table
        else:
            self.table = _substitution_table(seed)

    @classmethod
    def identity(cls) -> "DecomposableAdler":
        """Plain Adler behaviour (no byte substitution) — used by rsync."""
        return cls(seed=-1, table=tuple(range(256)))

    @property
    def seed(self) -> int:
        """The substitution-table seed."""
        return self._seed

    # ------------------------------------------------------------------
    # Direct hashing
    # ------------------------------------------------------------------
    def hash_block(self, data: bytes) -> HashPair:
        """Hash a whole block."""
        table = self.table
        length = len(data)
        a = 0
        b = 0
        for j, byte in enumerate(data):
            mapped = table[byte]
            a += mapped
            b += (length - j) * mapped
        return HashPair(a & _MASK16, b & _MASK16)

    def roll(
        self, pair: HashPair, length: int, out_byte: int, in_byte: int
    ) -> HashPair:
        """Slide a window of ``length`` bytes one position to the right."""
        out_mapped = self.table[out_byte]
        in_mapped = self.table[in_byte]
        a = (pair.a - out_mapped + in_mapped) & _MASK16
        b = (pair.b - length * out_mapped + a) & _MASK16
        return HashPair(a, b)

    # ------------------------------------------------------------------
    # Algebra: composition and decomposition
    # ------------------------------------------------------------------
    @staticmethod
    def compose(left: HashPair, right: HashPair, right_length: int) -> HashPair:
        """Hash of ``x || y`` from the hashes of ``x`` and ``y``."""
        a = (left.a + right.a) & _MASK16
        b = (left.b + right_length * left.a + right.b) & _MASK16
        return HashPair(a, b)

    @staticmethod
    def decompose_right(
        parent: HashPair, left: HashPair, right_length: int
    ) -> HashPair:
        """Hash of the right child from the parent's and left child's."""
        a = (parent.a - left.a) & _MASK16
        b = (parent.b - left.b - right_length * left.a) & _MASK16
        return HashPair(a, b)

    @staticmethod
    def decompose_left(
        parent: HashPair, right: HashPair, right_length: int
    ) -> HashPair:
        """Hash of the left child from the parent's and right child's."""
        a = (parent.a - right.a) & _MASK16
        b = (parent.b - right.b - right_length * a) & _MASK16
        return HashPair(a, b)

    # ------------------------------------------------------------------
    # Packing / truncation (bit-prefix behaviour)
    # ------------------------------------------------------------------
    @staticmethod
    def pack(pair: HashPair, width: int) -> int:
        """Pack the low bits of both components into a ``width``-bit value."""
        a_bits, b_bits = component_widths(width)
        a = pair.a & ((1 << a_bits) - 1)
        b = pair.b & ((1 << b_bits) - 1) if b_bits else 0
        return a | (b << a_bits)

    @staticmethod
    def unpack(packed: int, width: int) -> HashPair:
        """Inverse of :meth:`pack` (high component bits are lost: zeroed)."""
        a_bits, b_bits = component_widths(width)
        a = packed & ((1 << a_bits) - 1)
        b = (packed >> a_bits) & ((1 << b_bits) - 1) if b_bits else 0
        return HashPair(a, b)

    @classmethod
    def truncate(cls, packed: int, from_width: int, to_width: int) -> int:
        """Reduce a packed hash to a smaller width (keeps low bits)."""
        if to_width > from_width:
            raise ValueError(
                f"cannot widen a truncated hash ({from_width} -> {to_width})"
            )
        return cls.pack(cls.unpack(packed, from_width), to_width)

    @classmethod
    def decompose_right_packed(
        cls, parent: int, left: int, width: int, right_length: int
    ) -> int:
        """Truncated decomposition on packed ``width``-bit hashes.

        Valid because each component identity holds modulo any power of two
        not exceeding the transmitted component width (``a_bits >= b_bits``
        guarantees enough ``a`` bits are available for the ``b`` identity).
        """
        a_bits, b_bits = component_widths(width)
        parent_pair = cls.unpack(parent, width)
        left_pair = cls.unpack(left, width)
        a = (parent_pair.a - left_pair.a) & ((1 << a_bits) - 1)
        if b_bits:
            b = (parent_pair.b - left_pair.b - right_length * left_pair.a) & (
                (1 << b_bits) - 1
            )
        else:
            b = 0
        return a | (b << a_bits)

    def packed_hash(self, data: bytes, width: int) -> int:
        """Convenience: hash a block and pack it to ``width`` bits."""
        return self.pack(self.hash_block(data), width)
