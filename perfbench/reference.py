"""Reference values for the benchmark's output checks, computed without bellpart.

Every value comes from an explicit finite sum, not from the triangle
recurrences the program uses:

    S(n,k)   = 1/k!         sum_j (-1)^(k-j) C(k,j) j^n
    S_B(n,k) = 1/(2^k k!)   sum_j (-1)^(k-j) C(k,j) (2j+1)^n
    S_D(n,k) = 1/(2^k k!)   sum_j (-1)^(k-j) C(k,j) [(2j+1)^n - n (2j)^(n-1)]

(inclusion-exclusion; the type-D form is n! [x^n] of the column EGF
(e^x - x)(e^(2x) - 1)^k / (2^k k!)).  Summing over k <= n and swapping the
sums gives the Bell numbers as truncated Dobinski sums,

    Bell(n) = sum_{j<=n} w(n,j) / (c^j j!) * sum_{i<=n-j} (-1/c)^i / i!

with c = 1, w = j^n for the classical family and c = 2 for types B and D.
Values are computed modulo two Mersenne primes, so a row of n = 1500 costs
O(n) small modular powers; a wrong value passes only if it agrees with the
true one modulo both primes.
"""

from __future__ import annotations

PRIMES = ((1 << 61) - 1, (1 << 89) - 1)


class _Field:
    """Factorials and inverse factorials modulo one prime, grown on demand."""

    def __init__(self, p: int):
        self.p = p
        self.fact = [1]
        self.inv_fact = [1]

    def _grow(self, n: int) -> None:
        p = self.p
        while len(self.fact) <= n:
            self.fact.append(self.fact[-1] * len(self.fact) % p)
            self.inv_fact.append(pow(self.fact[-1], p - 2, p))

    def inv_factorial(self, n: int) -> int:
        self._grow(n)
        return self.inv_fact[n]


_FIELDS = [_Field(p) for p in PRIMES]


def _weight(family: str, n: int, j: int, p: int) -> int:
    if family == "classical":
        return pow(j, n, p)
    w = pow(2 * j + 1, n, p)
    if family == "d" and n > 0:
        w -= n * pow(2 * j, n - 1, p)
    return w % p


def _base(family: str) -> int:
    return 1 if family == "classical" else 2


def stirling_mod(family: str, n: int, k: int) -> tuple[int, ...]:
    """(S_family(n, k) mod p for p in PRIMES); family is classical, b or d."""
    if k < 0 or k > n:
        return tuple(0 for _ in PRIMES)
    out = []
    for f in _FIELDS:
        p = f.p
        total = 0
        for j in range(k + 1):
            # C(k,j) / k! = 1 / (j! (k-j)!)
            term = _weight(family, n, j, p) * f.inv_factorial(j) * f.inv_factorial(k - j)
            total += -term if (k - j) & 1 else term
        scale = pow(pow(_base(family), k, p), p - 2, p)
        out.append(total * scale % p)
    return tuple(out)


def bell_mod(family: str, n: int) -> tuple[int, ...]:
    """(Bell_family(n) mod p for p in PRIMES) from the truncated Dobinski sum."""
    c = _base(family)
    out = []
    for f in _FIELDS:
        p = f.p
        inv_c = pow(c, p - 2, p)
        # tails[m] = sum_{i<=m} (-1/c)^i / i!
        tails = []
        acc, power = 0, 1
        for i in range(n + 1):
            acc = (acc + power * f.inv_factorial(i)) % p
            tails.append(acc)
            power = -power * inv_c % p
        total, inv_c_j = 0, 1
        for j in range(n + 1):
            total += _weight(family, n, j, p) * inv_c_j * f.inv_factorial(j) * tails[n - j]
            inv_c_j = inv_c_j * inv_c % p
        out.append(total % p)
    return tuple(out)


def residues(value: int) -> tuple[int, ...]:
    return tuple(value % p for p in PRIMES)


def small_bell(family: str, n: int) -> int:
    """Exact Bell_family(n), for values below the smaller prime."""
    r1, r2 = bell_mod(family, n)
    if r1 != r2:
        raise ValueError(f"Bell_{family}({n}) does not fit below {PRIMES[0]}")
    return r1
