"""Diagnostics of binary words: complexity, correlation, spectrum, balance.

The complexity scanner is audited three ways: the four hand-traceable
words with their exact parses, an exhaustive property check of the
emitted parse over every binary word up to length 12 using a naive
character-by-character substring search, and the textbook per-prefix
scan as an exact oracle for both the parse and the prefix curve.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwjumps
from qwjumps import DegenerateSequenceError, Protocol, generate
from qwjumps.seqstats import (
    autocorrelation,
    lzc,
    lzc_curve,
    ones_fraction_curve,
    psd,
)


def naive_contains(haystack: str, needle: str) -> bool:
    # Deliberately avoids the built-in substring operator.
    for start in range(len(haystack) - len(needle) + 1):
        if haystack[start : start + len(needle)] == needle:
            return True
    return False


def assert_valid_parse(word: str) -> None:
    """Check every defining property of the complexity parse of word.

    Componentwise: each component except possibly the last is the
    shortest extension not reproducible from the preceding text minus
    one character, i.e. all its proper prefixes are reproducible and
    the component itself is not.
    """
    trace = lzc(word)
    parts = trace.partitions
    assert trace.complexity == len(parts)
    assert "".join(parts) == word
    assert parts[0] == word[:1]
    end = 1
    for k, part in enumerate(parts[1:], start=2):
        start, end = end, end + len(part)
        for q in range(1, len(part)):
            candidate = word[start : start + q]
            assert naive_contains(word[: start + q - 1], candidate)
        if k < len(parts):
            assert not naive_contains(word[: end - 1], word[start:end])
    assert end == len(word)


def all_words(length: int):
    for bits in range(2**length):
        yield format(bits, f"0{length}b")


def textbook_parse(word: str) -> tuple[str, ...]:
    """The Kaspar-Schuster parse, searching the whole text for every candidate."""
    parts = [word[:1]]
    q_start, q_end = 1, 2
    while q_end <= len(word):
        if word[q_start:q_end] in word[: q_end - 1]:
            q_end += 1
        else:
            parts.append(word[q_start:q_end])
            q_start, q_end = q_end, q_end + 1
    if q_start < len(word):
        parts.append(word[q_start:])
    return tuple(parts)


def textbook_curve(word: str) -> list[int]:
    """Complexity of every prefix, each parsed from scratch."""
    return [len(textbook_parse(word[:n])) for n in range(1, len(word) + 1)]


def protocol_word(protocol: Protocol, seed_symbol: int, length: int) -> str:
    rng_seed = 12345 if protocol is Protocol.RANDOM else None
    return generate(protocol, seed_symbol, length - 1, rng_seed=rng_seed).word()


class TestComplexityWorkedExamples:
    def test_constant_word(self):
        trace = lzc("111")
        assert trace.complexity == 2
        assert trace.partitions == ("1", "11")

    def test_alternating_word(self):
        trace = lzc("1010")
        assert trace.complexity == 3
        assert trace.partitions == ("1", "0", "10")

    def test_four_symbol_word(self):
        trace = lzc("0010")
        assert trace.complexity == 3
        assert trace.partitions == ("0", "01", "0")

    def test_eight_symbol_word(self):
        trace = lzc("10110101")
        assert trace.complexity == 5
        assert trace.partitions == ("1", "0", "11", "010", "1")


class TestComplexityProperties:
    def test_parse_properties_hold_for_every_short_word(self):
        for length in range(1, 13):
            for word in all_words(length):
                assert_valid_parse(word)

    def test_complexity_is_at_least_two_beyond_single_symbols(self):
        for length in range(2, 9):
            for word in all_words(length):
                assert lzc(word).complexity >= 2

    def test_complexity_never_decreases_along_prefixes(self):
        for length in range(2, 11):
            for word in all_words(length):
                values = [lzc(word[:k]).complexity for k in range(1, length + 1)]
                assert values == sorted(values)

    def test_constant_words_of_any_length_parse_into_two_components(self):
        for length in (2, 5, 64, 1000):
            assert lzc("0" * length).complexity == 2

    def test_input_forms_are_equivalent(self):
        seq = generate(Protocol.THUE_MORSE, 0, 63)
        from_seq = lzc(seq)
        from_str = lzc(seq.word())
        from_ints = lzc(list(seq.symbols))
        assert from_seq == from_str == from_ints

    def test_empty_word_is_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            lzc("")

    def test_foreign_symbols_are_rejected(self):
        with pytest.raises(ValueError, match="symbols 0 and 1"):
            lzc("0120")


class TestComplexityCurve:
    def test_constant_word_curve(self):
        curve = lzc_curve("111111", 2)
        np.testing.assert_array_equal(curve.times, [2, 4, 6])
        np.testing.assert_array_equal(curve.column("lzc"), [2, 2, 2])

    def test_alternating_word_curve(self):
        curve = lzc_curve("1010", 2)
        np.testing.assert_array_equal(curve.times, [2, 4])
        np.testing.assert_array_equal(curve.column("lzc"), [2, 3])

    def test_prefix_lengths_are_multiples_of_the_stride(self):
        curve = lzc_curve("10110", 2)
        np.testing.assert_array_equal(curve.times, [2, 4])

    def test_periodic_word_flattens_at_three(self):
        word = generate(Protocol.PERIODIC, 0, 999)
        values = lzc_curve(word, 100).column("lzc")
        np.testing.assert_array_equal(values, np.full(10, 3))

    def test_curve_is_nondecreasing_for_a_shuffled_word(self):
        word = generate(Protocol.RANDOM, 0, 499, rng_seed=9)
        values = lzc_curve(word, 25).column("lzc")
        assert np.all(np.diff(values) >= 0)

    def test_stride_must_fit_the_word(self):
        with pytest.raises(ValueError, match="stride"):
            lzc_curve("1010", 5)
        with pytest.raises(ValueError, match="stride"):
            lzc_curve("1010", 0)
        with pytest.raises(TypeError, match="integer"):
            lzc_curve("0101", 2.5)
        assert lzc_curve("0101", np.int64(2)).column("lzc").tolist() == [2, 3]


class TestComplexityAgainstTheTextbookScan:
    def test_every_short_word_matches_prefix_by_prefix(self):
        for length in range(1, 13):
            for word in all_words(length):
                np.testing.assert_array_equal(
                    lzc_curve(word, 1).column("lzc"), textbook_curve(word)
                )
                assert lzc(word).partitions == textbook_parse(word)

    @pytest.mark.parametrize("seed_symbol", [0, 1])
    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
    def test_protocol_words_match_prefix_by_prefix(self, protocol, seed_symbol):
        word = protocol_word(protocol, seed_symbol, 500)
        np.testing.assert_array_equal(
            lzc_curve(word, 1).column("lzc"), textbook_curve(word)
        )
        assert lzc(word).partitions == textbook_parse(word)

    def test_curve_of_a_long_random_word_at_stride_one(self):
        # Parsing each of the 3 * 10^4 prefixes from scratch would take
        # tens of minutes; one scan takes well under a second.
        word = protocol_word(Protocol.RANDOM, 0, 30_000)
        values = lzc_curve(word, 1).column("lzc")
        assert len(values) == 30_000
        assert np.all(np.diff(values) >= 0)
        assert values[-1] == lzc(word).complexity
        for n in (1_777, 5_000):
            assert values[n - 1] == len(textbook_parse(word[:n]))


class TestComplexityInputs:
    @pytest.mark.parametrize("symbols", [[0.5, 1.0], [-0.7], [2]])
    def test_non_binary_numbers_are_refused(self, symbols):
        with pytest.raises(ValueError, match="over \\{0, 1\\}"):
            lzc(symbols)
        with pytest.raises(ValueError, match="over \\{0, 1\\}"):
            lzc_curve(symbols, 1)

    def test_ints_bytes_and_sequences_read_as_their_word(self):
        seq = generate(Protocol.FIBONACCI, 0, 99)
        expected = lzc(seq.word())
        curve = lzc_curve(seq.word(), 10).column("lzc")
        assert seq.symbols.dtype == np.uint8
        for form in (seq, seq.symbols, [int(s) for s in seq.symbols]):
            assert lzc(form) == expected
            np.testing.assert_array_equal(lzc_curve(form, 10).column("lzc"), curve)


class TestAutocorrelation:
    def test_lag_zero_reads_one_exactly(self):
        for word in ("0110", "0010011", generate(Protocol.FIBONACCI, 0, 99)):
            assert autocorrelation(word, 2).column("R")[0] == 1.0

    def test_alternating_word_alternates_sign_with_near_unit_magnitude(self):
        word = generate(Protocol.PERIODIC, 0, 1000)
        record = autocorrelation(word, 10)
        big_t = len(word) - 1
        for tau in range(1, 11):
            value = record.column("R")[tau]
            assert math.copysign(1.0, value) == (-1.0) ** tau
            assert abs(abs(value) - 1.0) < 5.0 / big_t

    def test_shuffled_word_decorrelates_beyond_lag_zero(self):
        word = generate(Protocol.RANDOM, 0, 10_000, rng_seed=12345)
        record = autocorrelation(word, 100)
        big_t = len(word) - 1
        assert np.abs(record.column("R")[1:]).max() < 5.0 / math.sqrt(big_t)

    def test_lags_run_from_zero_to_tau_max(self):
        record = autocorrelation("01101001", 3)
        np.testing.assert_array_equal(record.times, [0, 1, 2, 3])

    def test_constant_word_is_degenerate(self):
        with pytest.raises(DegenerateSequenceError):
            autocorrelation("0000", 1)

    def test_tau_max_bounds_are_enforced(self):
        with pytest.raises(ValueError, match="tau_max"):
            autocorrelation("0110", 3)
        with pytest.raises(ValueError, match="tau_max"):
            autocorrelation("0110", 0)

    def test_tau_max_must_be_an_integer(self):
        for fraction in (2.5, 3.0):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                autocorrelation("01101001", fraction)
        assert autocorrelation("01101001", np.int64(3)).times.tolist() == [0, 1, 2, 3]

    # OpenBLAS splits a dot product of over 10 000 elements across its
    # threads.  On a single-core machine both runs get one thread, and
    # this test then passes without checking anything.
    @pytest.mark.parametrize("symbols", [10_001, 30_000])
    def test_values_do_not_depend_on_the_blas_thread_count(self, symbols):
        script = (
            "import sys; from qwjumps import generate; "
            "from qwjumps.seqstats import autocorrelation; "
            f"word = generate('fibonacci', 0, {symbols - 1}); "
            "sys.stdout.write(autocorrelation(word, 200).column('R').tobytes().hex())"
        )
        src = str(Path(qwjumps.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            paths = [src, env.get("PYTHONPATH")]
            env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]


class TestSpectrum:
    def test_powers_sum_to_one(self):
        for word in ("01", "0110100110010110", generate(Protocol.FIBONACCI, 0, 999)):
            assert abs(psd(word).column("Phi").sum() - 1.0) < 1e-10

    def test_alternating_word_concentrates_at_the_nyquist_bin(self):
        word = generate(Protocol.PERIODIC, 0, 999)
        spectrum = psd(word)
        nyquist = len(word) // 2
        index = np.flatnonzero(spectrum.times == nyquist)[0]
        assert spectrum.column("Phi")[index] > 1.0 - 1e-12
        rest = np.delete(spectrum.column("Phi"), index)
        assert rest.max() < 1e-12

    def test_frequencies_span_one_to_word_length(self):
        spectrum = psd("0110")
        np.testing.assert_array_equal(spectrum.times, [1, 2, 3, 4])

    def test_complement_word_has_the_identical_spectrum(self):
        # Complementing flips the sign of the centered values, which the
        # squared modulus cannot see; constant shifts are removed.
        word = generate(Protocol.RUDIN_SHAPIRO, 0, 499).symbols
        a = psd(word)
        b = psd(1 - word)
        np.testing.assert_allclose(a.column("Phi"), b.column("Phi"), rtol=0.0, atol=1e-15)

    def test_fibonacci_spectrum_is_dominated_by_narrow_peaks(self):
        spectrum = psd(generate(Protocol.FIBONACCI, 0, 9_999))
        top = np.sort(spectrum.column("Phi"))[::-1]
        assert top[0] > 0.1
        assert top[:50].sum() > 0.9

    def test_rudin_shapiro_spectrum_is_broadband(self):
        power = psd(generate(Protocol.RUDIN_SHAPIRO, 0, 9_999)).column("Phi")
        assert power.max() < 5.0 * np.median(power)

    def test_constant_word_is_degenerate(self):
        with pytest.raises(DegenerateSequenceError):
            psd("1111")

    def test_single_symbol_word_is_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            psd("1")


class TestOnesFraction:
    def test_empty_word_is_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ones_fraction_curve("")

    def test_alternating_prefix_fractions(self):
        curve = ones_fraction_curve("0101")
        np.testing.assert_array_equal(curve.times, [0, 1, 2, 3])
        np.testing.assert_allclose(
            curve.column("f"), [0.0, 0.5, 1.0 / 3.0, 0.5], atol=1e-15
        )

    def test_all_zero_word_stays_at_zero(self):
        curve = ones_fraction_curve(generate(Protocol.STANDARD, 0, 99))
        assert not curve.column("f").any()

    def test_thue_morse_is_exactly_balanced_at_power_of_two_prefixes(self):
        curve = ones_fraction_curve(generate(Protocol.THUE_MORSE, 0, 2**12 - 1))
        f = curve.column("f")
        for k in range(1, 13):
            assert f[2**k - 1] == 0.5

    def test_fibonacci_settles_near_the_golden_ratio_complement(self):
        curve = ones_fraction_curve(generate(Protocol.FIBONACCI, 0, 10**4))
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert abs(curve.column("f")[-1] - (1.0 - 1.0 / golden)) < 1e-3
