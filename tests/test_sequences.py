"""Generation of binary jump-control words.

The substitution families are cross-checked against closed-form
constructions that never touch the rewriting code: bit-counting
formulas for Thue-Morse and Rudin-Shapiro, and the word concatenation
recurrence for Fibonacci.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from qwjumps import BinarySequence, Protocol, generate, to_jumps

ALL_PROTOCOLS = list(Protocol)
SUBSTITUTION_PROTOCOLS = [
    Protocol.FIBONACCI,
    Protocol.THUE_MORSE,
    Protocol.RUDIN_SHAPIRO,
]


def thue_morse_reference(n: int) -> np.ndarray:
    # Symbol t is the parity of the number of set bits of t.
    return np.array([bin(t).count("1") & 1 for t in range(n)], dtype=np.uint8)


def rudin_shapiro_reference(n: int) -> np.ndarray:
    # Symbol t is the parity of the number of adjacent 11 bit pairs of t.
    out = np.empty(n, dtype=np.uint8)
    for t in range(n):
        pairs, v = 0, t
        while v:
            if (v & 3) == 3:
                pairs += 1
            v >>= 1
        out[t] = pairs & 1
    return out


def fibonacci_reference(n: int) -> np.ndarray:
    # Concatenation recurrence W_k = W_{k-1} + W_{k-2} from "0", "01".
    prev, word = "0", "01"
    while len(word) < n:
        prev, word = word, word + prev
    return np.array([int(c) for c in word[:n]], dtype=np.uint8)


class TestFrozenWords:
    def test_fibonacci_first_eight_symbols(self):
        assert generate(Protocol.FIBONACCI, 0, 7).word() == "01001010"

    def test_thue_morse_first_eight_symbols(self):
        assert generate(Protocol.THUE_MORSE, 0, 7).word() == "01101001"

    def test_rudin_shapiro_first_eight_symbols(self):
        assert generate(Protocol.RUDIN_SHAPIRO, 0, 7).word() == "00010010"

    def test_periodic_alternates_from_seed(self):
        assert generate(Protocol.PERIODIC, 0, 4).word() == "01010"
        assert generate(Protocol.PERIODIC, 1, 4).word() == "10101"

    def test_standard_is_all_zero(self):
        assert generate(Protocol.STANDARD, 0, 3).word() == "0000"


class TestClosedFormOracles:
    N = 4096

    def test_thue_morse_matches_bit_parity(self):
        word = generate(Protocol.THUE_MORSE, 0, self.N - 1).symbols
        np.testing.assert_array_equal(word, thue_morse_reference(self.N))

    def test_thue_morse_seed_one_is_the_complement(self):
        zero = generate(Protocol.THUE_MORSE, 0, self.N - 1).symbols
        one = generate(Protocol.THUE_MORSE, 1, self.N - 1).symbols
        np.testing.assert_array_equal(one, 1 - zero)

    def test_rudin_shapiro_matches_pair_parity(self):
        word = generate(Protocol.RUDIN_SHAPIRO, 0, self.N - 1).symbols
        np.testing.assert_array_equal(word, rudin_shapiro_reference(self.N))

    def test_rudin_shapiro_seed_one_is_the_complement(self):
        zero = generate(Protocol.RUDIN_SHAPIRO, 0, self.N - 1).symbols
        one = generate(Protocol.RUDIN_SHAPIRO, 1, self.N - 1).symbols
        np.testing.assert_array_equal(one, 1 - zero)

    def test_fibonacci_matches_concatenation_recurrence(self):
        word = generate(Protocol.FIBONACCI, 0, self.N - 1).symbols
        np.testing.assert_array_equal(word, fibonacci_reference(self.N))

    def test_fibonacci_seed_one_rewrites_onto_the_seed_zero_word(self):
        # One rewriting round maps the start symbol 1 to the word 0, so
        # both seeds emit the same infinite word.
        zero = generate(Protocol.FIBONACCI, 0, 999).symbols
        one = generate(Protocol.FIBONACCI, 1, 999).symbols
        np.testing.assert_array_equal(one, zero)

    def test_periodic_matches_modular_form(self):
        for seed in (0, 1):
            word = generate(Protocol.PERIODIC, seed, 999).symbols
            expected = (np.arange(1000) + seed) % 2
            np.testing.assert_array_equal(word, expected)


class TestWordInvariants:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    @pytest.mark.parametrize("seed_symbol", [0, 1])
    def test_length_and_alphabet(self, protocol, seed_symbol):
        rng_seed = 7 if protocol is Protocol.RANDOM else None
        seq = generate(protocol, seed_symbol, 257, rng_seed=rng_seed)
        assert len(seq) == 258
        assert set(np.unique(seq.symbols)) <= {0, 1}

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_first_symbol_honors_the_seed(self, protocol):
        # Two documented exceptions: the all-zero protocol ignores the
        # seed, and the Fibonacci rule rewrites a start symbol 1 into
        # the word 0 before any symbol is emitted.
        for seed_symbol in (0, 1):
            rng_seed = 7 if protocol is Protocol.RANDOM else None
            seq = generate(protocol, seed_symbol, 63, rng_seed=rng_seed)
            if protocol in (Protocol.STANDARD, Protocol.FIBONACCI):
                expected = 0
            else:
                expected = seed_symbol
            assert seq.symbols[0] == expected

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_word_spells_the_symbols(self, protocol):
        rng_seed = 7 if protocol is Protocol.RANDOM else None
        seq = generate(protocol, 1, 10**4, rng_seed=rng_seed)
        assert len(seq) == 10**4 + 1
        assert seq.word() == "".join(map(str, seq.symbols.tolist()))

    def test_standard_ignores_seed_symbol(self):
        assert generate(Protocol.STANDARD, 1, 63).word() == "0" * 64

    def test_thue_morse_prefixes_of_power_of_two_length_are_balanced(self):
        seq = generate(Protocol.THUE_MORSE, 0, 2**13 - 1)
        counts = np.cumsum(seq.symbols)
        for k in range(1, 14):
            assert counts[2**k - 1] == 2 ** (k - 1)

    def test_fibonacci_ones_fraction_approaches_golden_ratio_complement(self):
        seq = generate(Protocol.FIBONACCI, 0, 10**5 - 1)
        fraction = float(np.mean(seq.symbols))
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert abs(fraction - (1.0 - 1.0 / golden)) < 1e-3

    @pytest.mark.parametrize("protocol", SUBSTITUTION_PROTOCOLS)
    @pytest.mark.parametrize("seed_symbol", [0, 1])
    def test_substitution_words_are_prefix_stable(self, protocol, seed_symbol):
        short = generate(protocol, seed_symbol, 100).symbols
        long = generate(protocol, seed_symbol, 2000).symbols
        np.testing.assert_array_equal(short, long[:101])

    def test_symbols_are_read_only(self):
        seq = generate(Protocol.PERIODIC, 0, 9)
        with pytest.raises(ValueError):
            seq.symbols[0] = 1


class TestRandomProtocol:
    def test_identical_rng_seed_reproduces_the_word(self):
        a = generate(Protocol.RANDOM, 0, 999, rng_seed=42)
        b = generate(Protocol.RANDOM, 0, 999, rng_seed=42)
        np.testing.assert_array_equal(a.symbols, b.symbols)

    def test_different_rng_seeds_give_different_words(self):
        a = generate(Protocol.RANDOM, 0, 999, rng_seed=42)
        b = generate(Protocol.RANDOM, 0, 999, rng_seed=43)
        assert not np.array_equal(a.symbols, b.symbols)

    @pytest.mark.parametrize("seed_symbol", [0, 1])
    @pytest.mark.parametrize("t_max", [9, 10, 999])
    def test_word_is_a_permutation_of_the_alternating_word(
        self, seed_symbol, t_max
    ):
        seq = generate(Protocol.RANDOM, seed_symbol, t_max, rng_seed=11)
        ones = int(np.sum(seq.symbols))
        zeros = len(seq) - ones
        assert abs(ones - zeros) <= 1
        assert seq.symbols[0] == seed_symbol

    def test_word_is_not_the_alternating_word_itself(self):
        seq = generate(Protocol.RANDOM, 0, 999, rng_seed=12345)
        assert not np.array_equal(seq.symbols, (np.arange(1000) % 2))


class TestJumpSchedule:
    def test_all_zero_word_maps_to_unit_jumps(self):
        seq = generate(Protocol.STANDARD, 0, 2)
        np.testing.assert_array_equal(to_jumps(seq), [1, 1, 1])

    def test_alternating_word_maps_to_alternating_jumps(self):
        seq = generate(Protocol.PERIODIC, 0, 3)
        np.testing.assert_array_equal(to_jumps(seq), [1, 2, 1, 2])

    def test_fibonacci_word_maps_elementwise(self):
        seq = generate(Protocol.FIBONACCI, 0, 4)
        np.testing.assert_array_equal(to_jumps(seq), [1, 2, 1, 1, 2])

    def test_jumps_are_integers_offset_by_one(self):
        seq = generate(Protocol.RANDOM, 1, 99, rng_seed=3)
        jumps = to_jumps(seq)
        assert jumps.dtype == np.int64
        np.testing.assert_array_equal(jumps, seq.symbols.astype(np.int64) + 1)


class TestValidation:
    def test_zero_t_max_is_rejected(self):
        with pytest.raises(ValueError, match="t_max"):
            generate(Protocol.PERIODIC, 0, 0)

    def test_seed_symbol_outside_alphabet_is_rejected(self):
        with pytest.raises(ValueError, match="seed_symbol"):
            generate(Protocol.PERIODIC, 2, 9)

    def test_rng_seed_for_deterministic_protocol_is_rejected(self):
        with pytest.raises(ValueError, match="rng_seed"):
            generate(Protocol.FIBONACCI, 0, 9, rng_seed=1)

    def test_missing_rng_seed_for_random_protocol_is_rejected(self):
        with pytest.raises(ValueError, match="rng_seed"):
            generate(Protocol.RANDOM, 0, 9)

    def test_negative_rng_seed_is_rejected(self):
        with pytest.raises(ValueError, match="rng_seed"):
            generate(Protocol.RANDOM, 0, 9, rng_seed=-1)

    def test_protocol_accepts_its_string_value(self):
        seq = generate("thue-morse", 0, 7)
        assert seq.protocol is Protocol.THUE_MORSE
        assert seq.word() == "01101001"

    def test_a_fractional_seed_symbol_is_refused(self):
        # 1.0 == 1, so only an integer check can tell them apart.
        with pytest.raises(TypeError):
            generate("periodic", 1.0, 5)

    def test_numpy_integer_counts_record_as_python_ints(self):
        seq = generate("periodic", np.int64(1), np.int64(5))
        assert seq.word() == "101010"
        assert type(seq.seed_symbol) is int
        assert json.loads(json.dumps(seq.json_record()))["seed_symbol"] == 1
        seq = generate("random", 0, 5, rng_seed=np.int64(5))
        assert seq.word() == generate("random", 0, 5, rng_seed=5).word()
        assert type(seq.rng_seed) is int
        assert json.loads(json.dumps(seq.json_record()))["rng_seed"] == 5

    def test_a_fractional_rng_seed_is_refused(self):
        # Refused by generate's own integer check, before numpy sees it.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            generate("random", 0, 5, rng_seed=2.5)


class TestRecord:
    def test_json_record_round_trips_the_recipe(self):
        seq = generate(Protocol.RANDOM, 1, 19, rng_seed=5)
        record = json.loads(json.dumps(seq.json_record()))
        assert record["protocol"] == "random"
        assert record["seed_symbol"] == 1
        assert record["rng_seed"] == 5
        assert record["symbols"] == seq.word()
        assert len(record["symbols"]) == 20

    def test_rng_seed_is_absent_for_deterministic_protocols(self):
        record = generate(Protocol.PERIODIC, 0, 9).json_record()
        assert record["rng_seed"] is None

    @pytest.mark.parametrize(
        "symbols", [np.array([], dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8)]
    )
    def test_direct_construction_rejects_empty_or_2d_symbols(self, symbols):
        with pytest.raises(ValueError, match="nonempty 1-D"):
            BinarySequence(symbols=symbols, protocol=Protocol.PERIODIC, seed_symbol=0)

    def test_directly_built_wide_symbols_spell_their_word(self):
        seq = BinarySequence(
            symbols=np.array([0, 1, 1], dtype=np.int64),
            protocol=Protocol.PERIODIC,
            seed_symbol=0,
        )
        assert seq.word() == "011"

    def test_direct_construction_takes_the_protocol_by_its_value(self):
        seq = BinarySequence(np.array([0, 1], np.uint8), "fibonacci", 0)
        assert seq.protocol is Protocol.FIBONACCI
        assert seq.json_record()["protocol"] == "fibonacci"

    def test_direct_construction_rejects_foreign_symbols(self):
        with pytest.raises(ValueError, match="0 and 1"):
            BinarySequence(
                symbols=np.array([0, 2], dtype=np.uint8),
                protocol=Protocol.PERIODIC,
                seed_symbol=0,
            )
