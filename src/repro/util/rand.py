"""Deterministic random-number utilities.

Every stochastic component in the reproduction draws randomness through a
:class:`SeededRng`, never through the global :mod:`random` state.  Child
generators are derived by name so that adding a new consumer of randomness
does not perturb the draws seen by existing consumers — a property the
end-to-end experiment tests rely on.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")

__all__ = ["SeededRng", "derive_seed"]


def derive_seed(parent_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from a parent seed and a label.

    The derivation hashes ``"{parent_seed}/{name}"`` with SHA-256, so child
    streams are statistically independent of each other and of the parent,
    and are stable across Python versions (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{parent_seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SeededRng:
    """A named, seedable random source with convenience helpers.

    Wraps :class:`random.Random` rather than numpy so that cheap scalar
    draws stay cheap; callers needing vectorised draws can request a numpy
    generator via :meth:`numpy_rng`.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._random = random.Random(seed)
        #: the stream's bound ``getrandbits``, kept for the inlined
        #: :meth:`choice`/:meth:`token` draws (not pickled: see
        #: :meth:`__getstate__`)
        self._getrandbits = self._random.getrandbits
        #: children in creation order — the spine the durability layer
        #: walks to capture/restore a whole simulation's stream positions
        self._children: List["SeededRng"] = []

    def __getstate__(self) -> Dict:
        # a bound builtin method deep-copies as itself, so a copy would
        # draw from the original's stream: rebind on restore instead
        state = dict(self.__dict__)
        del state["_getrandbits"]
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._getrandbits = self._random.getrandbits

    def child(self, name: str) -> "SeededRng":
        """Return an independent child generator labelled ``name``.

        Every call creates a *fresh* stream (two ``child("x")`` calls are
        two generators at position zero — memoising here would change the
        draws existing consumers see); each is also recorded so
        :meth:`capture_state_tree` can reach it later.
        """
        born = SeededRng(derive_seed(self.seed, name),
                         name=f"{self.name}/{name}")
        self._children.append(born)
        return born

    # -- stream-position capture (the study checkpoint's RNG payload) ------

    def capture_state_tree(self) -> Dict:
        """JSON-serialisable snapshot of this stream and every descendant.

        ``random.Random.getstate()`` is a (version, ints, gauss_next)
        tuple, already JSON-friendly once listified.  The tree mirrors
        child *creation order*, so a resumed run that reconstructs the
        same object graph (same code path, same seeds) can put every
        stream back to its exact position with :meth:`restore_state_tree`.
        """
        version, internal, gauss_next = self._random.getstate()
        return {
            "name": self.name,
            "seed": self.seed,
            "state": [version, list(internal), gauss_next],
            "children": [child.capture_state_tree()
                         for child in self._children],
        }

    def restore_state_tree(self, data: Dict) -> None:
        """Restore a :meth:`capture_state_tree` snapshot onto this tree.

        The receiving tree must have the same shape (names, seeds, child
        order) as the captured one — i.e. be rebuilt by the same
        deterministic construction path; anything else is an error, not a
        silent divergence.
        """
        if data.get("name") != self.name or data.get("seed") != self.seed:
            raise ValueError(
                f"RNG state for {data.get('name')!r}/seed "
                f"{data.get('seed')!r} does not match stream "
                f"{self.name!r}/seed {self.seed!r}")
        children = data.get("children", [])
        if len(children) != len(self._children):
            raise ValueError(
                f"RNG stream {self.name!r} has {len(self._children)} "
                f"children, snapshot has {len(children)}")
        version, internal, gauss_next = data["state"]
        self._random.setstate((version, tuple(internal), gauss_next))
        for child, snapshot in zip(self._children, children):
            child.restore_state_tree(snapshot)

    # -- scalar draws -----------------------------------------------------

    def random(self) -> float:
        """Uniform draw in [0, 1)."""
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform draw in [low, high]."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Inclusive-range integer draw, mirroring random.randint."""
        return self._random.randint(low, high)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal draw with mean mu and stddev sigma."""
        return self._random.gauss(mu, sigma)

    def lognormal(self, mu: float, sigma: float) -> float:
        """Log-normal draw with underlying normal (mu, sigma)."""
        return self._random.lognormvariate(mu, sigma)

    def expovariate(self, rate: float) -> float:
        """Exponential draw with the given rate (1/mean)."""
        return self._random.expovariate(rate)

    def poisson(self, lam: float) -> int:
        """Poisson draw via inversion for small lambda, normal approx above.

        ``random.Random`` has no Poisson; this implementation is adequate
        for traffic simulation (lambda up to ~1e6).
        """
        if lam <= 0:
            return 0
        if lam < 30.0:
            # Knuth inversion.
            threshold = 2.718281828459045 ** (-lam)
            k = 0
            product = self._random.random()
            while product > threshold:
                k += 1
                product *= self._random.random()
            return k
        draw = self._random.gauss(lam, lam ** 0.5)
        return max(0, int(round(draw)))

    def bernoulli(self, p: float) -> bool:
        """True with probability p."""
        return self._random.random() < p

    # -- collection draws -------------------------------------------------

    def choice(self, seq: Sequence[T]) -> T:
        """One uniformly-drawn element of seq.

        Stream-identical to ``random.Random.choice``: its
        ``_randbelow_with_getrandbits`` rule (draw ``n.bit_length()``
        bits, redraw while the value is ``>= n``), inlined to skip two
        Python-level calls per draw.
        """
        n = len(seq)
        if not n:
            raise IndexError("Cannot choose from an empty sequence")
        k = n.bit_length()
        r = self._getrandbits(k)
        while r >= n:
            r = self._getrandbits(k)
        return seq[r]

    def choices(self, seq: Sequence[T], weights: Optional[Sequence[float]] = None,
                k: int = 1) -> List[T]:
        """k draws with replacement, optionally weighted."""
        return self._random.choices(seq, weights=weights, k=k)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        """k distinct elements drawn without replacement."""
        return self._random.sample(seq, k)

    def shuffle(self, items: List[T]) -> None:
        """Shuffle items in place."""
        self._random.shuffle(items)

    def shuffled(self, items: Iterable[T]) -> List[T]:
        """A shuffled copy; the input is left untouched."""
        out = list(items)
        self._random.shuffle(out)
        return out

    def weighted_index(self, weights: Sequence[float]) -> int:
        """Draw an index proportionally to ``weights`` (need not sum to 1)."""
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        point = self._random.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if point < acc:
                return i
        return len(weights) - 1

    # -- strings ----------------------------------------------------------

    _ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"

    def token(self, length: int = 12, alphabet: str = _ALNUM) -> str:
        """A random lowercase-alphanumeric token (usernames, ids, ...).

        ``length`` :meth:`choice` draws from ``alphabet``, inlined.
        """
        if length <= 0:
            return ""
        n = len(alphabet)
        if not n:
            raise IndexError("Cannot choose from an empty sequence")
        getrandbits = self._getrandbits
        k = n.bit_length()
        out = []
        for _ in range(length):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            out.append(alphabet[r])
        return "".join(out)

    def numpy_rng(self):
        """A numpy Generator seeded from this source (lazy import)."""
        import numpy as np

        return np.random.default_rng(self._random.getrandbits(64))
