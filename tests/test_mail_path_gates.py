"""The mail path's cheap forms equal the forms they replace.

* ``_content_hash`` collapses whitespace with ``" ".join(s.split())``,
  which must normalise exactly as ``re.sub(r"\\s+", " ", s.strip())``
  over Unicode whitespace (``\\x1c``-``\\x1f``, ``\\x85``, ``\\xa0``,
  ``\\u2028``, ``\\u3000``, ...);
* SpamAssassin's ``money_talk`` runs ``_MONEY_RE`` only on bodies that
  hold a ``\\d`` (non-ASCII digits such as ``٣`` included), which must
  answer as the ungated search does.
"""

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spamfilter.funnel import _content_hash
from repro.spamfilter.spamassassin import _MONEY_RE, _BodyFeatures

_PIECES = [
    " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c",
    "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u1680",
    "\u2000", "\u2009", "\u2028", "\u2029", "\u3000",
    "\u200b", "\ufeff",                   # not whitespace
    "$", "\u20ac", "\xa3", "\xa5", "1", "07", "2,500", ".99",
    "\u0663", "\u0663\u0664", "\u0967", "\xb2",  # ٣, ٣٤, १, ²
    "million", "Billion", "dollars", "USD", "usd", "\xc0B", "\u0130",
    "\xdf", "click here", "x", "Win",
]

bodies = st.one_of(
    st.text(),
    st.lists(st.sampled_from(_PIECES), max_size=24).map("".join),
)


def _old_content_hash(body: str) -> str:
    normalised = re.sub(r"\s+", " ", body.strip().lower())
    return hashlib.sha1(normalised.encode("utf-8")).hexdigest()


@pytest.mark.perfsmoke
class TestGateEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(bodies)
    def test_content_hash_normalisation(self, body):
        assert _content_hash(body) == _old_content_hash(body)

    @settings(max_examples=400, deadline=None)
    @given(bodies)
    def test_money_talk_gate(self, body):
        assert _BodyFeatures(body).money_talk == bool(_MONEY_RE.search(body))

    @pytest.mark.parametrize("body", [
        "win $1,000,000 now", "£ 5.00", "\u20ac\u0663",
        "\u0663 million dollars",
        "5 MILLION USD", "$ x", "3 millions dollars", "",
        "\u3000$\u30007", "10\xa0billion usd"])
    def test_money_talk_examples(self, body):
        assert _BodyFeatures(body).money_talk == bool(_MONEY_RE.search(body))

    def test_every_str_whitespace_collapses(self):
        spaces = "".join(chr(c) for c in range(0x110000) if chr(c).isspace())
        body = f"{spaces}a{spaces}B{spaces}"
        assert re.fullmatch(r"\s+", spaces)
        assert _content_hash(body) == _old_content_hash(body)
