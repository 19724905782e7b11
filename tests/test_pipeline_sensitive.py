"""Tests for the sensitive-information scrubber (paper Table 2 machinery)."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import (
    SENTINEL,
    SensitiveScrubber,
    card_brand,
    luhn_valid,
    sensitive,
)


@pytest.fixture(scope="module")
def scrubber():
    return SensitiveScrubber(salt="test-salt")


class TestLuhn:
    def test_known_valid(self):
        # standard test PANs
        assert luhn_valid("4111111111111111")   # visa
        assert luhn_valid("5500005555555559")   # mastercard
        assert luhn_valid("371449635398431")    # amex
        assert luhn_valid("30569309025904")     # diners

    def test_invalid_checksum(self):
        assert not luhn_valid("4111111111111112")

    def test_non_digits(self):
        assert not luhn_valid("4111-1111-1111-1111")

    def test_too_short(self):
        assert not luhn_valid("411111")


class TestCardBrand:
    def test_visa(self):
        assert card_brand("4111111111111111") == "visa"

    def test_mastercard(self):
        assert card_brand("5500005555555559") == "mastercard"

    def test_amex(self):
        assert card_brand("371449635398431") == "amex"

    def test_dinersclub(self):
        assert card_brand("30569309025904") == "dinersclub"

    def test_jcb(self):
        assert card_brand("3530111333300000") == "jcb"

    def test_discover(self):
        assert card_brand("6011111111111117") == "discover"

    def test_unknown(self):
        assert card_brand("9999999999999999") is None


class TestDetection:
    def test_credit_card_found(self, scrubber):
        matches = scrubber.find("Pay with 4111 1111 1111 1111 now")
        assert [m.kind for m in matches] == ["creditcard"]
        assert matches[0].detail == "visa"

    def test_card_with_hyphens(self, scrubber):
        matches = scrubber.find("card: 5500-0055-5555-5559.")
        assert matches[0].kind == "creditcard"
        assert matches[0].detail == "mastercard"

    def test_luhn_invalid_run_ignored(self, scrubber):
        matches = scrubber.find("order number 4111111111111112 attached")
        assert all(m.kind != "creditcard" for m in matches)

    def test_ssn(self, scrubber):
        assert [m.kind for m in scrubber.find("my ssn is 078-05-1120")] == ["ssn"]

    def test_ssn_contextual_without_hyphens(self, scrubber):
        matches = scrubber.find("SSN: 078051120")
        assert [m.kind for m in matches] == ["ssn"]

    def test_plain_9_digits_not_ssn(self, scrubber):
        matches = scrubber.find("tracking 078051120 arrived")
        assert all(m.kind != "ssn" for m in matches)

    def test_ein(self, scrubber):
        assert [m.kind for m in scrubber.find("EIN 12-3456789 on file")] == ["ein"]

    def test_vin(self, scrubber):
        matches = scrubber.find("vehicle 1HGCM82633A004352 registered")
        assert [m.kind for m in matches] == ["vin"]

    def test_vin_excludes_ioq_alphabet(self, scrubber):
        # contains I -> not a VIN
        assert all(m.kind != "vin"
                   for m in scrubber.find("code IHGCM82633A004352 here"))

    def test_phone_formats(self, scrubber):
        for text in ("(412) 555-1234", "412-555-1234", "+1 412 555 1234"):
            matches = scrubber.find(f"call {text} today")
            assert any(m.kind == "phone" for m in matches), text

    def test_email(self, scrubber):
        matches = scrubber.find("write to alice.smith@example.org please")
        assert [m.kind for m in matches] == ["email"]

    def test_zip_with_state(self, scrubber):
        matches = scrubber.find("Pittsburgh, PA 15213")
        assert any(m.kind == "zip" and m.text.startswith("15213")
                   for m in matches)

    def test_zip_with_keyword(self, scrubber):
        matches = scrubber.find("zip code: 90210")
        assert any(m.kind == "zip" for m in matches)

    def test_bare_5_digits_not_zip(self, scrubber):
        assert all(m.kind != "zip" for m in scrubber.find("invoice 90210 paid"))

    def test_password(self, scrubber):
        matches = scrubber.find("your password is hunter2")
        assert any(m.kind == "password" and m.text == "hunter2" for m in matches)

    def test_username(self, scrubber):
        matches = scrubber.find("login: jdoe99 works now")
        assert any(m.kind == "username" and m.text == "jdoe99" for m in matches)

    def test_idnumber(self, scrubber):
        matches = scrubber.find("account number: AC-99812 ok")
        assert any(m.kind == "idnumber" for m in matches)

    def test_dates(self, scrubber):
        for text in ("06/03/2016", "2016-06-03", "June 3, 2016", "Exp 06/03"):
            matches = scrubber.find(f"sent {text} thanks")
            assert any(m.kind == "date" for m in matches), text

    def test_card_takes_priority_over_phone(self, scrubber):
        # a card number could partially look like phone digits
        matches = scrubber.find("pay 4111 1111 1111 1111 now")
        kinds = [m.kind for m in matches]
        assert kinds.count("creditcard") == 1
        assert "phone" not in kinds

    def test_no_overlapping_matches(self, scrubber):
        text = ("ssn 078-05-1120, card 4111111111111111, "
                "email a@b.com, call 412-555-1234 on 06/03/2016")
        matches = scrubber.find(text)
        spans = sorted((m.start, m.end) for m in matches)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_clean_text_no_matches(self, scrubber):
        assert scrubber.find("hello there, see you at lunch") == []


class TestScrubbing:
    def test_paper_example_amex(self, scrubber):
        # Figure 2's running example
        text = "Amex 371449635398431 Exp 06/03\nBook us 3 rooms"
        result = scrubber.scrub(text)
        assert "371449635398431" not in result.text
        assert SENTINEL in result.text
        assert "amex" in result.text
        assert "Book us 0 rooms" in result.text  # digits zeroed

    def test_all_digits_zeroed(self, scrubber):
        result = scrubber.scrub("we have 7 cats and 12 dogs")
        assert result.text == "we have 0 cats and 00 dogs"

    def test_sentinel_wraps_replacement(self, scrubber):
        result = scrubber.scrub("ssn 078-05-1120")
        assert result.text.count(SENTINEL) == 2

    def test_hash_stable_within_salt(self, scrubber):
        first = scrubber.scrub("card 4111111111111111").text
        second = scrubber.scrub("card 4111111111111111").text
        assert first == second

    def test_hash_differs_across_salts(self):
        a = SensitiveScrubber(salt="a").scrub("ssn 078-05-1120").text
        b = SensitiveScrubber(salt="b").scrub("ssn 078-05-1120").text
        assert a != b

    def test_matches_reported(self, scrubber):
        result = scrubber.scrub("password: abc123 for alice@x.com")
        assert set(result.kinds_found()) == {"password", "email"}

    def test_count_by_label_card_brand(self, scrubber):
        result = scrubber.scrub("4111111111111111 and 371449635398431")
        counts = result.count_by_label()
        assert counts == {"visa": 1, "amex": 1}

    def test_scrub_empty(self, scrubber):
        result = scrubber.scrub("")
        assert result.text == ""
        assert result.matches == ()

    def test_non_sensitive_words_preserved(self, scrubber):
        result = scrubber.scrub("meeting moved to the blue room")
        assert result.text == "meeting moved to the blue room"


# -- gated find == ungated reference ----------------------------------------------

#: every keyword alternative of the password, username and idnumber
#: patterns, spelled out independently of the module
KEYWORDS = (
    "password", "passwd", "pwd", "passcode",
    "username", "user name", "user id", "userid", "login",
    "id number", "identification number", "member id", "account number",
    "case id", "case number", "reference number", "record number",
    "policy number",
)
# the three keyword patterns exactly as first written, before the gate
_REFERENCE_PASSWORD_RE = re.compile(
    r"\b(?:password|passwd|pwd|passcode)\s*(?:is|[:=])?\s+(\S+)", re.IGNORECASE)
_REFERENCE_USERNAME_RE = re.compile(
    r"\b(?:username|user name|user id|userid|login)\s*(?:is|[:=])?\s+(\S+)",
    re.IGNORECASE)
_REFERENCE_IDNUMBER_RE = re.compile(
    r"\b(?:id(?:entification)? number|member id|account number|case (?:id|number)|"
    r"reference number|record number|policy number)\s*[:#]?\s*([A-Za-z0-9-]{4,20})\b",
    re.IGNORECASE)


def reference_find(scrubber, text):
    """``find`` with every pattern run on every text: no gate at all."""
    candidates = []
    candidates.extend(scrubber._find_cards(text))
    candidates.extend(sensitive._simple(text, sensitive._SSN_RE, "ssn"))
    candidates.extend(sensitive._group(text, sensitive._SSN_CONTEXT_RE, "ssn",
                                       group=1))
    candidates.extend(sensitive._simple(text, sensitive._EIN_RE, "ein"))
    candidates.extend(sensitive._simple(text, sensitive._VIN_RE, "vin"))
    candidates.extend(sensitive._simple(text, sensitive._PHONE_RE, "phone"))
    for pattern in sensitive._DATE_RES:
        candidates.extend(sensitive._simple(text, pattern, "date"))
    candidates.extend(sensitive._simple(text, sensitive._EMAIL_RE, "email"))
    candidates.extend(sensitive._zip_matches(text))
    candidates.extend(sensitive._group(text, _REFERENCE_PASSWORD_RE,
                                       "password", group=1))
    candidates.extend(sensitive._group(text, _REFERENCE_USERNAME_RE,
                                       "username", group=1))
    candidates.extend(sensitive._group(text, _REFERENCE_IDNUMBER_RE,
                                       "idnumber", group=1))
    return sensitive._resolve_overlaps(candidates)


#: non-ASCII characters that re.IGNORECASE folds onto keyword letters
_FOLDS = {"s": "ſ", "i": "ı", "k": "K"}


@st.composite
def _cased(draw, keyword):
    """``keyword`` in random case, sometimes through a Unicode case fold."""
    out = []
    for char in keyword:
        choice = draw(st.integers(0, 5))
        if choice == 0 and char in _FOLDS:
            out.append(_FOLDS[char])
        else:
            out.append(char.upper() if choice % 2 else char)
    return "".join(out)


_PIECES = st.one_of(
    st.sampled_from(KEYWORDS).flatmap(_cased),
    st.text(alphabet="0123456789", min_size=1, max_size=17),
    st.sampled_from(["@", "a@b.com", "Bob.Smith@mail.example.org", " is ",
                     ": ", " = ", " # ", "-", "/", " ", "\n", "CA ", "zip "]),
    st.text(alphabet="abcxyzAB \t.,", max_size=6),
)
_SALTED = st.lists(_PIECES, max_size=12).map("".join)
_FILLER = st.text(alphabet="ab Z1@.:ſ", max_size=8)
_VALUE = st.text(alphabet="abcXYZ0123456789-", min_size=1, max_size=10)


class TestGatedFindParity:
    @pytest.mark.parametrize("keyword", KEYWORDS)
    def test_each_keyword_alone_is_found(self, scrubber, keyword):
        text = f"{keyword.upper()} Ab12cd"
        expected = reference_find(scrubber, text)
        assert expected
        assert scrubber.find(text) == expected
        assert scrubber.find(text.replace("1", "x")) == \
            reference_find(scrubber, text.replace("1", "x"))

    @settings(max_examples=400, deadline=None)
    @given(_SALTED)
    def test_salted_texts(self, scrubber, text):
        assert scrubber.find(text) == reference_find(scrubber, text)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(KEYWORDS).flatmap(_cased), _FILLER, _VALUE,
           _FILLER)
    def test_keyword_in_context(self, scrubber, keyword, before, value,
                                after):
        text = f"{before}{keyword} {value}{after}"
        assert scrubber.find(text) == reference_find(scrubber, text)
