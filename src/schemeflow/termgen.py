"""Worst-case term families for precision and complexity experiments.

Two generators: the classic exponential-for-k-CFA term, and the m-CFA
stress family — N calls to one function f on distinct constants, K nested
additions over f's parameter, and p layers of padding in argument position.
Padding consumes context frames before the parameter is read, so per-binding
results stay singletons exactly when m > p.
"""

from __future__ import annotations

from schemeflow.errors import ValidationError

VANHORN_TERM = (
    "((lambda (f) (let ((m (f #t)) (n (f #f))) m)) "
    "(lambda (z) ((lambda (x) x) (lambda (w) (w z z)))))"
)


class GenSpec:
    """n_bindings calls to f, n_plus additions, padding wrapper layers;
    immutable and compared by value."""

    __slots__ = ("n_bindings", "n_plus", "padding")

    def __init__(self, n_bindings: int, n_plus: int = 1, padding: int = 0) -> None:
        if n_bindings < 1:
            raise ValidationError("n_bindings must be >= 1")
        if n_plus < 0:
            raise ValidationError("n_plus must be >= 0")
        if padding < 0:
            raise ValidationError("padding must be >= 0")
        for name, value in zip(self.__slots__, (n_bindings, n_plus, padding)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return (self.n_bindings, self.n_plus, self.padding)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"GenSpec({fields})"


def gen_vanhorn() -> str:
    """The two-call boolean conflation term (exponential for k-CFA)."""
    return VANHORN_TERM


def _plus_body(k: int) -> str:
    # K right-nested additions over z, ending in z itself.
    body = "z"
    for _ in range(k):
        body = f"(+ z {body})"
    return body


def gen_mcfa_worst(s: GenSpec) -> str:
    """``((lambda (f) (let ((m<N-1> (f <N-1>)) … (m0 (f 0))) m0)) (lambda (z) FBODY))``
    with FBODY = p padding layers around the K-fold addition.  Each padding
    layer is an application binding the rest of the body under a fresh
    context frame, with an eta-style identity in argument position — so p
    frames push the distinguishing call site out of an m-deep context."""
    bindings = " ".join(f"(m{i} (f {i}))" for i in range(s.n_bindings - 1, -1, -1))
    fbody = _plus_body(s.n_plus)
    for j in range(1, s.padding + 1):
        fbody = f"((lambda (x{j}) {fbody}) (lambda (y{j}) y{j}))"
    return f"((lambda (f) (let ({bindings}) m0)) (lambda (z) {fbody}))"
