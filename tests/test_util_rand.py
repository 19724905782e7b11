"""Tests for repro.util.rand — deterministic randomness."""

import copy
import pickle
import random

import pytest

from repro.util import SeededRng, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_name_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_64_bit_range(self):
        seed = derive_seed(123456789, "component")
        assert 0 <= seed < 2 ** 64


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(7)
        b = SeededRng(7)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seed_different_stream(self):
        assert SeededRng(1).random() != SeededRng(2).random()

    def test_children_independent_of_sibling_creation(self):
        root1 = SeededRng(99)
        root2 = SeededRng(99)
        child_a1 = root1.child("a")
        root2.child("zzz")  # creating another child must not perturb "a"
        child_a2 = root2.child("a")
        assert [child_a1.random() for _ in range(5)] == [
            child_a2.random() for _ in range(5)]

    def test_child_name_propagates(self):
        child = SeededRng(1, name="root").child("traffic")
        assert child.name == "root/traffic"

    def test_randint_bounds(self):
        rng = SeededRng(3)
        draws = [rng.randint(2, 5) for _ in range(200)]
        assert min(draws) >= 2 and max(draws) <= 5
        assert set(draws) == {2, 3, 4, 5}

    def test_poisson_zero_lambda(self):
        assert SeededRng(1).poisson(0) == 0
        assert SeededRng(1).poisson(-1.0) == 0

    def test_poisson_small_lambda_mean(self):
        rng = SeededRng(11)
        draws = [rng.poisson(3.0) for _ in range(4000)]
        mean = sum(draws) / len(draws)
        assert 2.8 < mean < 3.2

    def test_poisson_large_lambda_mean(self):
        rng = SeededRng(12)
        draws = [rng.poisson(500.0) for _ in range(2000)]
        mean = sum(draws) / len(draws)
        assert 490 < mean < 510
        assert all(d >= 0 for d in draws)

    def test_bernoulli_probability(self):
        rng = SeededRng(13)
        hits = sum(rng.bernoulli(0.25) for _ in range(8000))
        assert 0.22 < hits / 8000 < 0.28

    def test_weighted_index_distribution(self):
        rng = SeededRng(14)
        counts = [0, 0, 0]
        for _ in range(6000):
            counts[rng.weighted_index([1.0, 2.0, 1.0])] += 1
        assert counts[1] > counts[0]
        assert counts[1] > counts[2]

    def test_weighted_index_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SeededRng(1).weighted_index([0.0, 0.0])

    def test_token_alphabet_and_length(self):
        token = SeededRng(5).token(20)
        assert len(token) == 20
        assert all(ch in "abcdefghijklmnopqrstuvwxyz0123456789" for ch in token)

    def test_shuffled_preserves_elements(self):
        rng = SeededRng(6)
        items = list(range(50))
        shuffled = rng.shuffled(items)
        assert sorted(shuffled) == items
        assert items == list(range(50))  # original untouched

    def test_sample_without_replacement(self):
        rng = SeededRng(8)
        picked = rng.sample(list(range(100)), 10)
        assert len(set(picked)) == 10

    def test_numpy_rng_deterministic(self):
        a = SeededRng(21).numpy_rng().random(4)
        b = SeededRng(21).numpy_rng().random(4)
        assert list(a) == list(b)


#: sequence lengths where the bit-length redraw rule changes shape:
#: every length up to 300, and powers of two and their neighbours to 2^20
_CHOICE_LENGTHS = sorted(set(range(1, 301)) | {
    n for k in range(1, 21) for n in (2 ** k - 1, 2 ** k, 2 ** k + 1)})


@pytest.mark.perfsmoke
class TestStreamIdentity:
    """``choice`` and ``token`` inline ``random.Random.choice``'s draw:
    the values and the generator state that follows must be the stdlib's."""

    @pytest.mark.parametrize("seed", [0, 5, 2016])
    def test_choice_matches_random_choice(self, seed):
        rng = SeededRng(seed)
        ref = random.Random(seed)
        for n in _CHOICE_LENGTHS:
            seq = range(n)
            drawn = [rng.choice(seq) for _ in range(7)]
            assert drawn == [ref.choice(seq) for _ in range(7)], n
            assert rng._random.getstate() == ref.getstate(), n

    @pytest.mark.parametrize("alphabet", [
        SeededRng._ALNUM, "a", "ab", "abc", "0123456789abcdef",
        "0123456789abcdefg", "αβγδε", "$€£٣"])
    def test_token_matches_joined_choices(self, alphabet):
        rng = SeededRng(23)
        ref = random.Random(23)
        for length in range(41):
            token = rng.token(length, alphabet)
            assert token == "".join(ref.choice(alphabet)
                                    for _ in range(length)), length
            assert rng._random.getstate() == ref.getstate(), length

    def test_default_token_matches(self):
        ref = random.Random(7)
        expected = "".join(ref.choice(SeededRng._ALNUM) for _ in range(12))
        assert SeededRng(7).token() == expected

    def test_empty_sequence_raises(self):
        rng = SeededRng(1)
        with pytest.raises(IndexError):
            rng.choice([])
        with pytest.raises(IndexError):
            rng.choice("")
        with pytest.raises(IndexError):
            rng.token(3, "")
        assert rng.token(0, "") == ""
        assert rng._random.getstate() == random.Random(1).getstate()

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda rng: pickle.loads(pickle.dumps(rng))],
        ids=["deepcopy", "pickle"])
    def test_a_copy_draws_from_its_own_stream(self, clone):
        rng = SeededRng(9)
        rng.token(5)
        twin = clone(rng)
        assert twin.token(20) == rng.token(20)
        assert twin.choice(range(1000)) == rng.choice(range(1000))
