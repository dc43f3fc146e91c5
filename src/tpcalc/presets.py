"""Named groups: the builder-expression grammar, the few groups it names that
need hand-written constructions, and the reference groups of the
classification and verification layers, each written as an expression.

Builder expressions are a tiny prefix grammar, one per catalog line.
Examples:

    dihedral 7
    sdp (cyclic 3) (cyclic 4) invert
    dp (dihedral 3) (cyclic 5)
    perm 8 gens.txt

`named(expr)` builds a file-free expression once per process, so every
caller that names the same reference group shares one table and its memos.
"""

from __future__ import annotations

import re
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import FormatError, Limits, VerificationError, check_limit, using
from .group_core import (
    GroupTable,
    action_by_generator_power,
    action_by_inversion,
    cp_rtimes_c2n,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    field_frobenius,
    from_permutation_generators,
    generalized_quaternion,
    quotient_group,
    read_cayley_table,
    read_permutation_generators,
    semidirect_product,
    subgroup_generated,
)


def _checked(G: GroupTable, order: int) -> GroupTable:
    if G.order != order:
        raise VerificationError(f"expected order {order}, built {G.order}")
    return G


@lru_cache(maxsize=None)
def alternating_4() -> GroupTable:
    return _checked(from_permutation_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)]), 12)


@lru_cache(maxsize=None)
def symmetric_4() -> GroupTable:
    return _checked(from_permutation_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)]), 24)


@lru_cache(maxsize=None)
def alternating_5() -> GroupTable:
    return _checked(from_permutation_generators(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]), 60)


@lru_cache(maxsize=None)
def sl2_3() -> GroupTable:
    """SL(2,3) acting on the eight nonzero vectors of GF(3)^2."""
    vecs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    pos = {v: i for i, v in enumerate(vecs)}

    def perm_of(matrix):
        (a, b), (c, d) = matrix
        return tuple(pos[((a * x + b * y) % 3, (c * x + d * y) % 3)] for x, y in vecs)

    gens = [perm_of(((1, 1), (0, 1))), perm_of(((0, 2), (1, 0)))]
    return _checked(from_permutation_generators(8, gens), 24)


@lru_cache(maxsize=None)
def psl3_2() -> GroupTable:
    """The simple group of order 168, as fractional-linear maps on the eight
    points of the projective line over GF(7) (point 7 is the infinite one)."""
    shift = tuple([(i + 1) % 7 for i in range(7)] + [7])

    def neg_inv(x: int) -> int:
        if x == 7:
            return 0
        if x == 0:
            return 7
        return (-pow(x, -1, 7)) % 7

    gens = [shift, tuple(neg_inv(i) for i in range(8))]
    return _checked(from_permutation_generators(8, gens), 168)


@lru_cache(maxsize=None)
def c4_circ_d4() -> GroupTable:
    """Central product of C4 and D4 over their shared central involution."""
    prod = direct_product(cyclic(4), dihedral(4))
    # c^2 pairs with the central rotation r^2 of D4 (index 2 in rotations-first order)
    diagonal = subgroup_generated(prod, [2 * 8 + 2])
    if diagonal.order != 2:
        raise VerificationError("central identification subgroup must have order 2")
    Q, _ = quotient_group(prod, diagonal)
    return _checked(Q, 16)


def plane_swap_action(p: int, top: GroupTable) -> list[np.ndarray]:
    """C4 acting on the rank-2 elementary abelian group by coordinate swap."""
    n = p * p
    swap = np.array([(i % p) * p + (i // p) for i in range(n)], dtype=np.int64)
    ident = np.arange(n, dtype=np.int64)
    return [ident if k % 2 == 0 else swap for k in range(top.order)]


def plane_quarter_turn_action(p: int, top: GroupTable) -> list[np.ndarray]:
    """C4 acting on the rank-2 elementary abelian group by (x, y) -> (-y, x)."""
    n = p * p
    turn = np.array([((-(i // p)) % p) + p * (i % p) for i in range(n)], dtype=np.int64)
    perms = []
    cur = np.arange(n, dtype=np.int64)
    for _ in range(top.order):
        perms.append(cur)
        cur = turn[cur]
    return perms


# ---------------------------------------------------------------------------
# Builder expressions
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def _tokenize(expr: str) -> list[str]:
    return _TOKEN.findall(expr)


def read_input(path: Path | str) -> str:
    """The text of an input file; a file that cannot be read is a FormatError."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {path}: not UTF-8 text") from exc


class _Parser:
    def __init__(self, tokens: list[str], base_dir: Path):
        self.tokens = tokens
        self.pos = 0
        self.base_dir = base_dir

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise FormatError("unexpected end of builder expression")
        self.pos += 1
        return tok

    def take_int(self) -> int:
        tok = self.take()
        try:
            return int(tok)
        except ValueError as exc:
            raise FormatError(f"expected an integer, got {tok!r}") from exc

    def group_arg(self) -> GroupTable:
        tok = self.take()
        if tok != "(":
            raise FormatError(f"expected '(', got {tok!r}")
        G = self.expression()
        closing = self.take()
        if closing != ")":
            raise FormatError(f"expected ')', got {closing!r}")
        return G

    def expression(self) -> GroupTable:
        name = self.take()
        if name == "cyclic":
            return cyclic(self.take_int())
        if name == "dihedral":
            return dihedral(self.take_int())
        if name == "quaternion":
            return generalized_quaternion(self.take_int())
        if name == "cpc2":
            return cp_rtimes_c2n(self.take_int(), self.take_int())
        if name == "frobfield":
            return field_frobenius(self.take_int())
        if name == "elemab":
            return elementary_abelian(self.take_int(), self.take_int())
        if name in ("dp", "sdp"):
            A, B, action = self.product_factors(name)
            return direct_product(A, B) if action is None else semidirect_product(A, B, action)
        if name == "perm":
            degree = self.take_int()
            text = read_input(self.base_dir / self.take())
            file_degree, gens = read_permutation_generators(text)
            if file_degree != degree:
                raise FormatError(f"declared degree {degree} != file degree {file_degree}")
            return from_permutation_generators(degree, gens)
        if name == "table":
            return read_cayley_table(read_input(self.base_dir / self.take()))
        if name in _NAMED:
            G = _NAMED[name]()  # built once per process, so checked here too
            check_limit(G.order, "table")
            return G
        raise FormatError(f"unknown builder {name!r}")

    def product_factors(self, name: str):
        """The factors after a product builder's name: (A, B, None) for
        `dp (A) (B)`, (base, top, action) for `sdp` and for `cpc2 p k`, which
        is C_p extended by C_{2^k} acting by inversion."""
        if name == "cpc2":
            base, top = cyclic(self.take_int()), cyclic(2 ** self.take_int())
            return base, top, action_by_inversion(base, top)
        A, B = self.group_arg(), self.group_arg()
        return A, B, (self.action_arg(A, B) if name == "sdp" else None)

    def action_arg(self, G: GroupTable, K: GroupTable):
        name = self.take()
        if name == "invert":
            return action_by_inversion(G, K)
        if name == "pow":
            return action_by_generator_power(G, K, self.take_int())
        if name == "swap":
            return plane_swap_action(_plane_prime(G), K)
        if name == "qturn":
            return plane_quarter_turn_action(_plane_prime(G), K)
        raise FormatError(f"unknown action {name!r}")


_NAMED: dict[str, Callable[[], GroupTable]] = {
    "a4": alternating_4,
    "a5": alternating_5,
    "s4": symmetric_4,
    "sl2_3": sl2_3,
    "psl3_2": psl3_2,
    "c4_circ_d4": c4_circ_d4,
}


def _plane_prime(G: GroupTable) -> int:
    p = round(G.order ** 0.5)
    if p * p != G.order:
        raise FormatError("plane actions need a rank-2 elementary abelian base")
    return p


def _parse(expr: str, base_dir: Path | str, rule: Callable[[_Parser], object]):
    parser = _Parser(_tokenize(expr), Path(base_dir))
    result = rule(parser)
    if parser.peek() is not None:
        raise FormatError(f"trailing tokens in builder expression: {parser.tokens[parser.pos:]}")
    return result


def build_group(expr: str, base_dir: Path | str = ".") -> GroupTable:
    """The group `expr` names; a group over the `table` limit raises
    SizeLimitError before its table is allocated."""
    return _parse(expr, base_dir, _Parser.expression)


def product_factors(expr: str, base_dir: Path | str = "."):
    """How a `dp`, `sdp` or `cpc2` expression builds its group, as
    `_Parser.product_factors` gives it; None for any other expression."""
    if _tokenize(expr)[:1] not in (["dp"], ["sdp"], ["cpc2"]):
        return None
    return _parse(expr, base_dir, lambda parser: parser.product_factors(parser.take()))


@lru_cache(maxsize=None)
def named(expr: str) -> GroupTable:
    """The group a file-free expression names, built once under `Limits()`."""
    with using(Limits()):
        return build_group(expr)


# ---------------------------------------------------------------------------
# Reference groups
# ---------------------------------------------------------------------------

_QUARTER_REFERENCES = {
    "d6": "dihedral 6",
    "modular_16": "sdp (cyclic 8) (cyclic 2) pow 5",
    "c4_circ_d4": "c4_circ_d4",
    "c2_x_d4": "dp (cyclic 2) (dihedral 4)",
    "c2sq_rtimes_c4": "sdp (elemab 2 2) (cyclic 4) swap",
}

_HALF_REFERENCES = {
    8: {"d4": "dihedral 4"},
    16: {"q16": "quaternion 16", "c4_rtimes_c4": "sdp (cyclic 4) (cyclic 4) invert"},
}


def quarter_classification_references() -> dict[str, GroupTable]:
    """Reference groups for the quotient shape in the tp = 1/4 classification."""
    return {name: named(expr) for name, expr in _QUARTER_REFERENCES.items()}


def half_classification_references(order: int) -> dict[str, GroupTable]:
    """Reference groups of the given order for the tp = 1/2 classification."""
    refs = {name: named(expr) for name, expr in _HALF_REFERENCES.get(order, {}).items()}
    k = _two_power_cofactor(order, 3)
    if k is not None and k >= 1:
        refs[f"c3_rtimes_c{2**k}"] = named(f"cpc2 3 {k}")
    return refs


def quarter_family_i_reference(order: int) -> tuple[str, GroupTable] | None:
    """The dihedral-like C5-by-C_{2^k} group of the given order, if any."""
    k = _two_power_cofactor(order, 5)
    if k is None or k < 1:
        return None
    return f"c5_rtimes_c{2**k}", named(f"cpc2 5 {k}")


def _two_power_cofactor(order: int, p: int) -> int | None:
    """k such that order = p * 2^k, or None."""
    if order % p != 0:
        return None
    rest = order // p
    k = rest.bit_length() - 1
    return k if rest == 1 << k else None
