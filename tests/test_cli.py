"""CLI: golden outputs, exit codes, and command round trips."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from blockramsey.cli import main

GOLDEN = Path(__file__).parent / "golden"

# an even-length unsigned k=1 word sequence over the default alphabet
PAIR_WORDS = json.dumps([
    {"k": 1, "mode": "unsigned", "symbols": [{"var": 1}]},
    {"k": 1, "mode": "unsigned", "symbols": [{"letter": [1]}, {"var": 1}]},
])


def _one_word(k, witness=False):
    # a JSON list holding the signed word v_k, or a radius-0 witness of it
    words = [{"k": k, "mode": "signed", "symbols": [{"var": k}]}]
    if not witness:
        return json.dumps(words)
    return json.dumps({"kind": "word", "mode": "signed", "k": k, "r": 2,
                       "radius": 0, "colour": 0, "certificate": [],
                       "rule": "seeded:0", "lengths": [1], "words": words,
                       "alphabet": {"levels": [["0", "a"]], "zero": "0"}})


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "blockramsey.cli", *args],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_inproc(capfd, *args):
    code = main(list(args))
    out, err = capfd.readouterr()
    return code, out, err


class TestGolden:
    def test_span_golden(self):
        code, out, _ = run_cli(
            "span", "--mode", "unsigned", "--k", "1",
            "--blocks", '[{"entries":[[0,1]]},{"entries":[[1,1]]}]',
        )
        assert code == 0
        assert out == (GOLDEN / "span_k1.jsonl").read_text()

    def test_search_exhausted_golden(self):
        code, out, _ = run_cli(
            "search", "--mode", "unsigned", "--k", "1", "--N", "2",
            "--m", "2", "--colours", "2", "--family", "min-position-mod",
        )
        assert code == 3
        assert out == (GOLDEN / "search_exhausted.json").read_text()

    def test_search_witness_golden(self):
        code, out, _ = run_cli(
            "search", "--mode", "unsigned", "--k", "1", "--N", "4",
            "--m", "2", "--colours", "2", "--family", "support-size-mod",
        )
        assert code == 0
        assert out == (GOLDEN / "search_witness.json").read_text()

    def test_selftest_golden(self):
        code, out, _ = run_cli("selftest", "--seed", "0")
        assert code == 0
        assert out == (GOLDEN / "selftest.json").read_text()

    def test_search_word_bit_letters_golden(self):
        # the only golden whose certificate holds bit-tuple letters ([] and
        # [1]), which its JSON writes as lists
        code, out, _ = run_cli(
            "search", "--kind", "word", "--mode", "signed", "--k", "1",
            "--lengths", "1,2,4", "--radius", "1", "--family",
            "support-size-mod", "--alphabet", '{"levels":[[[],[1]]],"zero":[]}',
        )
        assert code == 0
        assert out == (GOLDEN / "search_word_bitletters.json").read_text()
        code, out, _ = run_cli(
            "verify", "--witness", f"@{GOLDEN / 'search_word_bitletters.json'}",
            "--family", "support-size-mod")
        assert code == 0
        assert json.loads(out) == {"checked": 98, "colour": 1, "failures": [],
                                   "passed": True}


class TestExitCodes:
    def test_usage_error_is_2(self):
        code, _, _ = run_cli("span", "--bogus-flag", "x")
        assert code == 2

    def test_unknown_command_is_2(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_domain_error_is_1(self, capfd):
        # the vector never attains its bound: an invariant violation
        code, _, err = run_inproc(
            capfd, "span", "--mode", "unsigned", "--k", "2",
            "--blocks", '[{"entries":[[0,1]]}]',
        )
        assert code == 1
        assert "error" in err

    def test_universe_over_cap_is_1(self, capfd):
        code, out, err = run_inproc(
            capfd, "search", "--mode", "signed", "--k", "2", "--N", "20",
            "--m", "2", "--colours", "2", "--family", "support-size-mod",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "cap" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", [
        ("search", "--N", "3"),
        ("search", "--kind", "word", "--lengths", "1,2"),
        ("pipeline", "--lengths", "1,2"),
    ], ids=["vector", "word", "pipeline"])
    def test_colours_over_cap_is_1(self, capfd, command):
        # refused before any search makes its 1 << r mark
        started = time.perf_counter()
        code, out, err = run_inproc(capfd, *command, "--colours", "99999999999")
        assert (code, out) == (1, "")
        assert err == "error: 99999999999 colours exceed the cap of 1024\n"
        assert time.perf_counter() - started < 5

    def _witness_file(self, capfd, tmp_path, **edits):
        code, out, _ = run_inproc(
            capfd, "search", "--mode", "signed", "--k", "1", "--N", "3",
            "--m", "2", "--colours", "2", "--family", "support-size-mod",
            "--radius", "1",
        )
        assert code == 0
        data = json.loads(out)
        data.update(edits)
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(data))
        return f"@{path}"

    def test_verify_colour_count_mismatch_is_1(self, capfd, tmp_path):
        witness = self._witness_file(capfd, tmp_path)
        code, out, err = run_inproc(
            capfd, "verify", "--witness", witness, "--colours", "7",
            "--family", "support-size-mod",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "r=2" in err
        assert len(err.strip().splitlines()) == 1

    def test_verify_blocks_outside_n_is_1(self, capfd, tmp_path):
        witness = self._witness_file(capfd, tmp_path, N=1)
        code, out, err = run_inproc(
            capfd, "verify", "--witness", witness, "--colours", "2",
            "--family", "support-size-mod",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "outside" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("edits,message", [
        ({"mode": "foo"}, 'unknown mode "foo"'),
        ({"radius": 7}, "radius 7 is not 0 or 1"),
        ({"mode": "unsigned"}, "radius 1 requires signed mode"),
    ], ids=["mode-foo", "radius-7", "unsigned-r1"])
    def test_verify_witness_mode_or_radius_out_of_range_is_1(
            self, capfd, tmp_path, edits, message):
        # these witnesses once got a verdict: "passed": true, exit 0
        witness = self._witness_file(capfd, tmp_path, **edits)
        code, out, err = run_inproc(
            capfd, "verify", "--witness", witness, "--colours", "2",
            "--family", "support-size-mod",
        )
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("golden,colouring,edits,message", [
        ("search_witness.json", ("--family", "support-size-mod"),
         {"mode": "signed", "radius": 1},
         'the witness has k=1 and mode "signed" but its vectors have k=1 '
         'and mode "unsigned"'),
        ("search_witness.json", ("--family", "support-size-mod"),
         {"colour": 2}, "witness colour 2 lies outside [0, 2)"),
        ("search_word_radius1.json", ("--colours", "3", "--seed", "5"),
         {"k": 3, "lengths": [7, 9]},
         'the witness has k=3 and mode "signed" but its words have k=1 '
         'and mode "signed"'),
        ("search_word_radius1.json", ("--colours", "3", "--seed", "5"),
         {"lengths": [2, 4]},
         "the witness lengths [2, 4] differ from its words' [2, 3]"),
    ])
    def test_verify_header_that_disagrees_with_the_body_is_1(
            self, capfd, tmp_path, golden, colouring, edits, message):
        # the mode and k cases once printed "passed": true, exit 0
        data = json.loads((GOLDEN / golden).read_text())
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(dict(data, **edits)))
        code, out, err = run_inproc(capfd, "verify", "--witness", f"@{path}",
                                    *colouring)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("args,value", [
        (("search", "--kind", "word", "--lengths", ""), '""'),
        (("pipeline", "--lengths", "1,x"), '"1,x"'),
    ])
    def test_lengths_that_are_not_integers_is_1(self, capfd, args, value):
        # these once printed "invalid literal for int() with base 10"
        code, out, err = run_inproc(capfd, *args)
        assert code == 1 and out == ""
        assert err == ("error: --lengths must be comma-separated integers, "
                       f"not {value}\n")

    @pytest.mark.parametrize("sigmas", [
        # the first two once raised TypeError tracebacks, the next three were
        # read as bit 1, and the last printed "invalid literal for int()"
        "5", "[5]", '[["1"]]', "[[true]]", "[[1.0]]", '{"a":1}',
    ])
    def test_decode_sigmas_that_are_not_bit_lists_is_1(self, capfd, sigmas):
        code, out, err = run_inproc(capfd, "decode", "--words", PAIR_WORDS,
                                    "--blocks", '[{"entries":[[2,1]]}]',
                                    "--sigmas", sigmas)
        assert code == 1 and out == ""
        assert err.startswith("error: --sigmas must be a JSON list of lists "
                              "of 0/1 integer bits")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("lengths", [[True], [1.0]])
    def test_verify_word_lengths_that_are_not_integers_is_1(
            self, capfd, tmp_path, lengths):
        # these once verified as passed, exit 0, since [1] == [True]
        code, out, _ = run_inproc(capfd, "search", "--kind", "word", "--k", "1",
                                  "--lengths", "1", "--colours", "1")
        assert code == 0
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(dict(json.loads(out), lengths=lengths)))
        code, out, err = run_inproc(capfd, "verify", "--witness", f"@{path}",
                                    "--colours", "1")
        assert code == 1 and out == ""
        assert err == ("error: the witness field 'lengths' must be a JSON "
                       "list of integers\n")

    def test_pipeline_letter_level_over_cap_is_1(self, capfd):
        # level 40 has 2^41 letters; building them once ran past 120 s
        started = time.perf_counter()
        code, out, err = run_inproc(capfd, "pipeline", "--lengths", "1,2",
                                    "--letter-level", "40")
        assert code == 1 and out == ""
        assert err.startswith("error: bitstring level 40 has 2^41 letters")
        assert len(err.strip().splitlines()) == 1
        assert time.perf_counter() - started < 5

    def test_span_over_cap_is_1(self, capfd):
        # 3^16 - 1 combinations once printed a MemoryError traceback
        started = time.perf_counter()
        blocks = json.dumps([{"entries": [[n, 1]]} for n in range(16)])
        code, out, err = run_inproc(capfd, "span", "--mode", "signed", "--k", "1",
                                    "--limit", "1", "--blocks", blocks)
        assert (code, out) == (1, "")
        assert err == "error: 43046720 span combinations exceed the cap of 1000000\n"
        assert time.perf_counter() - started < 5

    def test_span_substitution_pieces_over_cap_is_1(self, capfd):
        # 16^6 substitution pieces of one signed k=3 generator once ran past
        # a 10 s timeout
        started = time.perf_counter()
        alphabet = json.dumps({"levels": [[str(t) for t in range(16)]],
                               "zero": "0"})
        words = json.dumps([{"k": 3, "mode": "signed",
                             "symbols": [{"var": 3}]}])
        code, out, err = run_inproc(capfd, "span", "--kind", "words",
                                    "--alphabet", alphabet, "--words", words,
                                    "--limit", "1")
        assert (code, out) == (1, "")
        assert err == ("error: 16777216 substitution pieces exceed the cap "
                       "of 1000000\n")
        assert time.perf_counter() - started < 5

    def test_verify_radius1_universe_over_cap_is_1(self, capfd, tmp_path):
        # the seed-1 N=4 radius-1 witness with N edited to 100,000
        started = time.perf_counter()
        code, out, _ = run_inproc(capfd, "search", "--mode", "signed", "--k",
                                  "1", "--N", "4", "--m", "2", "--radius", "1",
                                  "--seed", "1")
        assert code == 0
        witness = json.loads(out)
        witness["N"] = 100000
        (tmp_path / "w.json").write_text(json.dumps(witness))
        code, out, err = run_inproc(capfd, "verify", "--witness",
                                    f"@{tmp_path / 'w.json'}", "--seed", "1")
        assert (code, out) == (1, "")
        assert err == ("error: universe of 3^100000 cells exceeds the cap of "
                       "1000000; lower k or N\n")
        assert time.perf_counter() - started < 5

    def test_verify_radius1_word_balls_over_cap_is_1(self, capfd, tmp_path):
        # every word of this witness has colour 1, so verifying colour 0
        # once walked every ball whole: up to 3^15 words for the longest
        # span elements
        started = time.perf_counter()
        words = [{"k": 1, "mode": "signed", "symbols": [{"var": 1}] * n}
                 for n in (1, 2, 4, 8)]
        witness = {"kind": "word", "mode": "signed", "k": 1, "r": 2,
                   "radius": 1, "colour": 0, "certificate": [],
                   "alphabet": {"levels": [["0", "a"]], "zero": "0"},
                   "lengths": [1, 2, 4, 8], "words": words}
        (tmp_path / "w.json").write_text(json.dumps(witness))
        code, out, err = run_inproc(capfd, "verify", "--witness",
                                    f"@{tmp_path / 'w.json'}", "--family",
                                    "value-at-min-support")
        assert (code, out) == (1, "")
        assert err == ("error: 14348907 possible words in one ball exceed the "
                       "cap of 1000000\n")
        assert time.perf_counter() - started < 5

    def test_verify_over_cap_is_1(self, capfd, tmp_path):
        # search finds this witness at once; verifying it once tried 9^8
        # pieces for the length-8 generator
        started = time.perf_counter()
        args = ("--family", "value-at-min-support")
        code, witness, _ = run_inproc(capfd, "search", "--kind", "word", "--mode",
                                      "unsigned", "--lengths", "1,2,4,8", *args)
        assert code == 0
        (tmp_path / "w.json").write_text(witness)
        code, out, err = run_inproc(capfd, "verify", "--witness",
                                    f"@{tmp_path / 'w.json'}", *args)
        assert (code, out) == (1, "")
        assert err == ("error: 43053372 oracle pieces to try exceed the cap "
                       "of 1000000\n")
        assert time.perf_counter() - started < 5

    @pytest.mark.parametrize("command,message", [
        (("search", "--kind", "word", "--mode", "signed", "--k", "3000000",
          "--lengths", "1,2"), "6000008 word symbols"),
        (("search", "--kind", "word", "--mode", "unsigned", "--k", "3000000",
          "--lengths", "1,2"), "3000008 word symbols"),
        (("pipeline", "--k", "3000000", "--lengths", "1,2"), "3000004 word symbols"),
        (("verify", "--witness", _one_word(30000000, witness=True)),
         "60000002 oracle pieces to try"),
        (("span", "--kind", "words", "--words", _one_word(3000000)),
         "6000002 tetris pieces"),
        (("span", "--kind", "neg-t", "--words", _one_word(3000000)),
         "3000001 tetris pieces"),
    ], ids=["search-signed", "search-unsigned", "pipeline", "verify",
            "span-words", "span-neg-t"])
    def test_huge_word_k_is_1(self, capfd, command, message):
        # each once built every variable symbol or tetris piece before its
        # cap: a MemoryError, or a refusal after seconds
        started = time.perf_counter()
        code, out, err = run_inproc(capfd, *command)
        assert (code, out) == (1, "")
        assert err == f"error: {message} exceed the cap of 1000000\n"
        assert time.perf_counter() - started < 5

    @pytest.mark.parametrize("command,power", [
        (("search", "--kind", "word", "--mode", "signed", "--k", "300",
          "--lengths", "1,2"), 181),
        (("span", "--kind", "words", "--words", _one_word(1000)), 602),
        (("span", "--kind", "words", "--words", _one_word(100000)), 60206),
    ], ids=["search-k300", "span-k1000", "span-k100000"])
    def test_huge_count_is_shown_as_a_power_of_ten(self, capfd, command, power):
        # once printed in full: 181 and 603 digits, and past 4,300 digits
        # Python's own refusal to convert the count
        code, out, err = run_inproc(capfd, *command)
        assert (code, out) == (1, "")
        assert err == (f"error: about 10^{power} substitution pieces exceed "
                       "the cap of 1000000\n")

    @pytest.mark.parametrize("blocks", ['{"entries":5}', '[5]', '[{"entries":5}]'])
    def test_span_malformed_blocks_is_1(self, capfd, blocks):
        code, out, err = run_inproc(capfd, "span", "--blocks", blocks)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("witness", ['[1]', '{"kind":"word","words":5}',
                                         '{"kind":["word"]}'])
    def test_verify_malformed_witness_is_1(self, capfd, witness):
        code, out, err = run_inproc(capfd, "verify", "--witness", witness)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_verify_witness_field_of_wrong_type_is_1(self, capfd, tmp_path):
        witness = self._witness_file(capfd, tmp_path, N="x")
        code, out, err = run_inproc(capfd, "verify", "--witness", witness,
                                    "--family", "support-size-mod")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "'N'" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("edits,field", [
        ({"colour": False, "radius": False}, "radius"),
        ({"colour": False}, "colour"),
        ({"N": True}, "N"),
    ])
    def test_verify_witness_boolean_integer_field_is_1(
            self, capfd, tmp_path, edits, field):
        # JSON booleans are not integers, although isinstance(True, int) holds
        witness = self._witness_file(capfd, tmp_path, **edits)
        code, out, err = run_inproc(
            capfd, "verify", "--witness", witness, "--colours", "2",
            "--family", "support-size-mod",
        )
        assert code == 1 and out == ""
        assert err == f"error: the witness field {field!r} must be a JSON integer\n"

    @pytest.mark.parametrize("rule", [5, None])
    def test_verify_witness_rule_not_a_string_is_1(self, capfd, tmp_path, rule):
        # `rule` may be absent, but when present it names the colouring
        witness = self._witness_file(capfd, tmp_path, rule=rule)
        code, out, err = run_inproc(
            capfd, "verify", "--witness", witness, "--colours", "2",
            "--family", "support-size-mod",
        )
        assert code == 1 and out == ""
        assert err == "error: the witness field 'rule' must be a JSON string\n"

    def test_verify_word_witness_with_malformed_words_is_1(self, capfd, tmp_path):
        code, out, _ = run_inproc(
            capfd, "search", "--kind", "word", "--mode", "unsigned",
            "--k", "1", "--colours", "2", "--lengths", "1,2",
            "--family", "value-at-min-support",
        )
        assert code == 0
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(dict(json.loads(out), words=[5])))
        code, out, err = run_inproc(capfd, "verify", "--witness", f"@{path}",
                                    "--family", "value-at-min-support")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "word sequence" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("entries", ["[[0,1.7]]", "[[0.5,1]]", "[[0,true]]"])
    def test_span_non_integer_entries_is_1(self, capfd, entries):
        # neither truncated nor read as 1: a non-integer entry is rejected
        code, out, err = run_inproc(capfd, "span", "--blocks",
                                    f'[{{"entries":{entries}}}]')
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "integer" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("alphabet,word", [
        ('{"levels":[["0"]],"zero":"0"}',
         '{"k":true,"mode":"unsigned","symbols":[{"var":true}]}'),
        ('{"levels":[["0"]],"zero":"0"}',
         '{"k":1,"mode":"unsigned","symbols":[{"var":true}]}'),
        ('{"levels":[[[],[true]]],"zero":[]}',
         '{"k":1,"mode":"unsigned","symbols":[{"var":1},{"letter":[true]}]}'),
    ])
    def test_word_boolean_is_1(self, capfd, alphabet, word):
        # true is read neither as the integer 1 nor as the bit 1
        code, out, err = run_inproc(capfd, "tetris", "--kind", "word",
                                    "--alphabet", alphabet, "--input", word)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("args,quoted", [
        (("tetris", "--kind", "word", "--input",
          '{"k":1,"mode":"unsigned","symbols":[{"var":true}]}'),
         "variable index true "),
        (("tetris", "--kind", "word", "--alphabet",
          '{"levels":[[[],[true]]],"zero":[]}', "--input",
          '{"k":1,"mode":"unsigned","symbols":[{"letter":[true]}]}'),
         "not [true]"),
        (("tetris", "--kind", "word", "--input",
          '{"k":1,"mode":"unsigned","symbols":[{"letter":null}]}'),
         "not null"),
        (("tetris", "--kind", "word", "--input",
          '{"k":1,"mode":null,"symbols":[{"var":1}]}'),
         "unknown mode null"),
        (("tetris", "--input", '{"k":1,"mode":null,"entries":[[0,1]]}'),
         "unknown mode null"),
        (("tetris", "--input", '{"k":1,"mode":["signed"],"entries":[[0,1]]}'),
         'unknown mode ["signed"]'),
        (("verify", "--witness", '{"kind":null}'), "unknown witness kind null"),
    ])
    def test_rejected_value_is_quoted_as_json(self, capfd, args, quoted):
        # the message echoes the value as the user wrote it, not as Python
        code, out, err = run_inproc(capfd, *args)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and quoted in err
        assert len(err.strip().splitlines()) == 1

    def test_list_letter_of_a_non_bit_is_1(self, capfd):
        # the letter [2] was read as a letter and encoded to the psi bit 0
        code, out, err = run_inproc(
            capfd, "encode", "--alphabet", '{"levels":[[[],[2]]],"zero":[]}',
            "--words", '[{"k":1,"mode":"unsigned","symbols":[{"letter":[2]},'
            '{"var":1}]}]', "--cols", "1")
        assert (code, out) == (1, "")
        assert err == "error: a letter is a string or a list of bits, not [2]\n"

    def test_verify_witness_block_with_string_k_is_1(self, capfd, tmp_path):
        path = Path(self._witness_file(capfd, tmp_path)[1:])
        data = json.loads(path.read_text())
        data["blocks"][0]["k"] = "1"
        path.write_text(json.dumps(data))
        code, out, err = run_inproc(capfd, "verify", "--witness", f"@{path}",
                                    "--family", "support-size-mod")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "integer k" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("args,message", [
        (("span", "--blocks", '[{"k":1}]'),
         "a block vector lacks the field 'entries'"),
        (("tetris", "--input", '{"k":1,"entries":[[0,1]]}'),
         "a block vector lacks the field 'mode'"),
        (("tetris", "--kind", "word", "--input", '{"k":1,"mode":"unsigned"}'),
         "a word lacks the field 'symbols'"),
        (("tetris", "--kind", "word", "--alphabet", '{"levels":[["0"]]}',
          "--input", '{"k":1,"mode":"unsigned","symbols":[{"var":1}]}'),
         "an alphabet lacks the field 'zero'"),
    ])
    def test_missing_field_is_named(self, capfd, args, message):
        code, out, err = run_inproc(capfd, *args)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("kind,needs", [("vectors", "--blocks"),
                                            ("words", "--words")])
    def test_span_without_its_sequence_is_1(self, capfd, kind, needs):
        code, out, err = run_inproc(capfd, "span", "--kind", kind)
        assert code == 1 and out == ""
        assert err == f"error: span --kind {kind} needs {needs}\n"

    @pytest.mark.parametrize("table,message", [
        ([1], "a colour table must be a JSON object"),
        ({"mapping": 5}, "a colour table's mapping must be a JSON object of "
                         "integer colours"),
        ({}, "a colour table lacks the field 'mapping'"),
        ({"mapping": {}, "default": "1"},
         'a colour table\'s default must be an integer, not "1"'),
        # a boolean default once coloured every element 1 and exited 0
        ({"mapping": {}, "default": True},
         "a colour table's default must be an integer, not true"),
    ])
    def test_malformed_table_is_1(self, capfd, tmp_path, table, message):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        code, out, err = run_inproc(capfd, "search", "--N", "3", "--m", "1",
                                    "--table", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("args", [
        ("search", "--N", "3", "--m", "1"),
        ("verify", "--witness", f"@{GOLDEN / 'search_witness.json'}"),
        ("pipeline", "--lengths", "2,3", "--samples", "4"),
    ])
    def test_table_with_family_is_1(self, capfd, tmp_path, args):
        # each names the colouring; the table once won and the family was
        # dropped without a word
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"mapping": {}, "default": 0}))
        code, _, _ = run_inproc(capfd, *args, "--table", str(path))
        assert code == 0  # the table alone colours the run
        code, out, err = run_inproc(capfd, *args, "--table", str(path),
                                    "--family", "support-size-mod")
        assert code == 1 and out == ""
        assert err == "error: give --table or --family, not both\n"

    @pytest.mark.parametrize("args,key", [
        (("search", "--N", "3", "--m", "1"),
         '{"entries":[[0,1]],"k":1,"mode":"unsigned"}'),
        (("verify", "--witness", f"@{GOLDEN / 'search_witness.json'}"),
         '{"entries":[[0,1],[1,1]],"k":1,"mode":"unsigned"}'),
        (("pipeline", "--lengths", "2,3", "--samples", "4"),
         '[[{"entries":[[1,1]],"k":1,"mode":"unsigned"}],'
         '{"bits":[],"cols":2,"rows":2}]'),
    ])
    def test_table_miss_is_1(self, capfd, tmp_path, args, key):
        # the message once came in the KeyError's repr quotes
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"mapping": {}}))
        code, out, err = run_inproc(capfd, *args, "--table", str(path))
        assert code == 1 and out == ""
        assert err == f"error: no colour for {key}\n"

    @pytest.mark.parametrize("args", [
        ("search", "--N", "3", "--m", "1"),
        ("verify", "--witness", f"@{GOLDEN / 'search_witness.json'}"),
    ])
    @pytest.mark.parametrize("named", ["--family", "--table"])
    def test_seed_beside_table_or_family_is_1(self, capfd, tmp_path, args, named):
        # a table or family colours the run, so the seed went unused
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"mapping": {}, "default": 0}))
        colouring = (named, "support-size-mod" if named == "--family" else str(path))
        code, _, _ = run_inproc(capfd, *args, *colouring)
        assert code == 0  # the colouring alone runs
        code, out, err = run_inproc(capfd, *args, "--seed", "5")
        assert json.loads(out) and err == ""  # and so does the seed alone
        code, out, err = run_inproc(capfd, *args, *colouring, "--seed", "5")
        assert code == 1 and out == ""
        assert err == f"error: give --seed or {named}, not both\n"

    @pytest.mark.parametrize("named", ["--family", "--table"])
    def test_pipeline_takes_seed_beside_table_or_family(self, capfd, tmp_path, named):
        # a pipeline's seed also seeds its sampling, so it is not unused
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"mapping": {}, "default": 0}))
        colouring = (named, "support-size-mod" if named == "--family" else str(path))
        code, out, err = run_inproc(capfd, "pipeline", "--lengths", "2,3",
                                    "--samples", "4", *colouring, "--seed", "3")
        assert code in (0, 3) and err == ""
        assert json.loads(out)

    @pytest.mark.parametrize("option", [("--mode", "signed"), ("--k", "2")])
    def test_dist_takes_no_mode_or_k(self, capfd, option):
        with pytest.raises(SystemExit) as exc:
            main(["dist", *option, "--a", '{"k":1,"mode":"unsigned","entries":[[0,1]]}',
                  "--b", '{"k":1,"mode":"unsigned","entries":[[0,1]]}'])
        assert exc.value.code == 2
        assert "error:" in capfd.readouterr().err

    @pytest.mark.parametrize("args", [
        ("search", "--kind", "word", "--k", "0", "--lengths", "1,2"),
        ("pipeline", "--k", "0"),
    ])
    def test_word_search_with_k_below_1_is_1(self, capfd, args):
        # these once printed an exhaustion, exit 3: "no witness exists"
        code, out, err = run_inproc(capfd, *args)
        assert code == 1 and out == ""
        assert err == "error: k must be at least 1\n"

    @pytest.mark.parametrize("args,message", [
        (("perfect-sets", "--words", PAIR_WORDS, "--index", "-1"),
         "column index -1 is negative"),
        (("encode", "--words", PAIR_WORDS, "--cols", "-2"),
         "a matrix needs nonnegative rows and cols"),
        (("span", "--blocks", '[{"entries":[[0,1]]}]', "--limit", "-1"),
         "--limit -1 is negative"),
        (("pipeline", "--samples", "-3"), "sample_count must be at least 1"),
        (("pipeline", "--letter-level", "-2"), "letter_level must be nonnegative"),
        # a negative column count once printed nothing and exited 0
        (("perfect-sets", "--words", PAIR_WORDS, "--cols", "-2"),
         "column count -2 is negative"),
        # with an index, --cols was once ignored: these printed a record, exit 0
        (("perfect-sets", "--words", PAIR_WORDS, "--index", "5", "--cols", "2"),
         "column index 5 is not below the column count 2"),
        (("perfect-sets", "--words", PAIR_WORDS, "--index", "2", "--cols", "2"),
         "column index 2 is not below the column count 2"),
        (("perfect-sets", "--words", PAIR_WORDS, "--index", "0", "--cols", "-2"),
         "column count -2 is negative"),
        # no sample once printed a pass that checked nothing, exit 0
        (("pipeline", "--samples", "0"), "sample_count must be at least 1"),
    ])
    def test_negative_count_or_index_is_1(self, capfd, args, message):
        # each once gave a traceback or a silently wrong result
        code, out, err = run_inproc(capfd, *args)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("block,message", [
        # a k above the base's once reached the decoder as the tetris power
        # T^-1 and failed with "exponent must be nonnegative"
        ({"k": 2, "entries": [[2, 2]]},
         "decode --blocks has k 2 but the base sequence has k 1"),
        ({"mode": "signed", "entries": [[2, 1]]},
         'decode --blocks has mode "signed" but the base sequence has mode '
         '"unsigned"'),
    ])
    def test_decode_blocks_off_the_base_is_1(self, capfd, block, message):
        code, out, err = run_inproc(capfd, "decode", "--words", PAIR_WORDS,
                                    "--blocks", json.dumps([block]),
                                    "--sigmas", "[[]]")
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("args", [
        ("dist", "--k", "vector", "--a", '{"k":1,"mode":"unsigned","entries":[[0,1]]}',
         "--b", '{"k":1,"mode":"unsigned","entries":[[0,1]]}'),
        ("search", "--N", "3", "--m", "1", "--col", "3", "--se", "1"),
    ])
    def test_option_prefix_is_2(self, capfd, args):
        # a prefix once ran as the option it abbreviates (--kind, --colours)
        with pytest.raises(SystemExit) as exc:
            main(list(args))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capfd.readouterr().err

    @pytest.mark.parametrize("kind", ["words", "letters", "neg-t"])
    @pytest.mark.parametrize("option", [("--mode", "signed"), ("--k", "1")])
    def test_span_of_words_takes_no_mode_or_k(self, capfd, kind, option):
        code, out, err = run_inproc(capfd, "span", "--kind", kind,
                                    "--words", PAIR_WORDS, *option)
        assert code == 1 and out == ""
        assert err == f"error: span --kind {kind} takes its mode and k from --words\n"

    @pytest.mark.parametrize("args,error", [
        (("--kind", "word", "--N", "9", "--m", "5"),
         "search --kind word takes no --N or --m"),
        (("--lengths", "1,2,4", "--alphabet", "{}"),
         "search --kind vector takes no --lengths or --alphabet"),
    ], ids=["word-N-m", "vector-lengths-alphabet"])
    def test_search_refuses_the_other_kinds_options(self, capfd, args, error):
        # each was once read by one kind only and silently ignored by the other
        code, out, err = run_inproc(capfd, "search", *args)
        assert code == 1 and out == ""
        assert err == f"error: {error}\n"

    def test_exhausted_is_3(self, capfd):
        code, out, _ = run_inproc(
            capfd, "search", "--mode", "unsigned", "--k", "1", "--N", "2",
            "--m", "2", "--colours", "2", "--family", "min-position-mod",
        )
        assert code == 3
        assert json.loads(out)["exhausted"] is True


class TestCommands:
    def test_span_limit_streams(self, capfd):
        code, out, _ = run_inproc(
            capfd, "span", "--mode", "unsigned", "--k", "1",
            "--blocks", '[{"entries":[[0,1]]},{"entries":[[1,1]]}]',
            "--limit", "2",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_span_words(self, capfd):
        alphabet = json.dumps({"levels": [["0", "a"]], "zero": "0"})
        words = json.dumps([
            {"k": 1, "mode": "unsigned", "symbols": [{"var": 1}]},
            {"k": 1, "mode": "unsigned", "symbols": [{"var": 1}, {"var": 1}]},
        ])
        code, out, _ = run_inproc(
            capfd, "span", "--kind", "words", "--alphabet", alphabet,
            "--words", words,
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_table_file_colours_the_search(self, capfd, tmp_path):
        # the table format the README documents
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"mapping": {
            '{"entries":[[0,1]],"k":1,"mode":"unsigned"}': 1}, "default": 0}))
        code, out, _ = run_inproc(capfd, "search", "--N", "2", "--m", "1",
                                  "--table", str(path))
        assert code == 0
        assert json.loads(out)["colour"] == 1

    def test_dist_vector(self, capfd):
        code, out, _ = run_inproc(
            capfd, "dist", "--kind", "vector",
            "--a", '{"k":2,"mode":"signed","entries":[[0,2],[1,-2]]}',
            "--b", '{"k":2,"mode":"signed","entries":[[0,-2]]}',
        )
        assert code == 0
        assert json.loads(out) == {"dist": 4}

    def test_dist_word_infinite(self, capfd):
        alphabet = json.dumps({"levels": [["0", "a", "b"]], "zero": "0"})
        code, out, _ = run_inproc(
            capfd, "dist", "--kind", "word", "--alphabet", alphabet,
            "--a", '{"k":1,"mode":"signed","symbols":[{"letter":"a"},{"var":1}]}',
            "--b", '{"k":1,"mode":"signed","symbols":[{"letter":"b"},{"var":1}]}',
        )
        assert code == 0
        assert json.loads(out) == {"dist": "infinity"}

    def test_tetris_vector(self, capfd):
        code, out, _ = run_inproc(
            capfd, "tetris", "--kind", "vector",
            "--input", '{"k":2,"mode":"unsigned","entries":[[0,2],[3,1]]}',
        )
        assert code == 0
        assert json.loads(out) == {"entries": [[0, 1]], "k": 1,
                                   "mode": "unsigned"}

    def test_encode_decode_round_trip(self, capfd, tmp_path):
        words = json.dumps([
            {"k": 1, "mode": "unsigned", "symbols": [{"var": 1}]},
            {"k": 1, "mode": "unsigned",
             "symbols": [{"letter": [1]}, {"var": 1}]},
            {"k": 1, "mode": "unsigned",
             "symbols": [{"var": 1}, {"letter": []}, {"var": 1}, {"letter": [1]}]},
            {"k": 1, "mode": "unsigned",
             "symbols": [{"var": 1}] * 8},
        ])
        code, out, _ = run_inproc(capfd, "derive-b", "--words", words)
        assert code == 0
        blocks = json.loads(out)
        assert len(blocks) == 2
        code, out, _ = run_inproc(
            capfd, "decode", "--words", words,
            "--blocks", json.dumps(blocks),
            "--sigmas", json.dumps([[], [1]]),
        )
        assert code == 0
        decoded = json.loads(out)["words"]
        code, out, _ = run_inproc(
            capfd, "encode", "--words", json.dumps(decoded))
        assert code == 0
        assert json.loads(out)["phi"] == blocks

    def test_perfect_sets(self, capfd):
        words = json.dumps([
            {"k": 1, "mode": "unsigned", "symbols": [{"var": 1}]},
            {"k": 1, "mode": "unsigned",
             "symbols": [{"letter": [1]}, {"var": 1}]},
            {"k": 1, "mode": "unsigned",
             "symbols": [{"var": 1}, {"letter": []}, {"var": 1}, {"letter": [1]}]},
            {"k": 1, "mode": "unsigned", "symbols": [{"var": 1}] * 8},
        ])
        code, out, _ = run_inproc(capfd, "perfect-sets", "--words", words)
        assert code == 0
        descs = [json.loads(line) for line in out.strip().splitlines()]
        assert [d["index"] for d in descs] == [0]
        assert len(descs[0]["classes"]) == 1

    def test_search_then_verify(self, capfd, tmp_path):
        code, out, _ = run_inproc(
            capfd, "search", "--mode", "unsigned", "--k", "1", "--N", "4",
            "--m", "2", "--colours", "2", "--family", "support-size-mod",
        )
        assert code == 0
        witness_file = tmp_path / "witness.json"
        witness_file.write_text(out)
        code, out, _ = run_inproc(
            capfd, "verify", "--witness", f"@{witness_file}",
            "--colours", "2", "--family", "support-size-mod",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_word_search_cli(self, capfd):
        alphabet = json.dumps({"levels": [["0", "a"]], "zero": "0"})
        code, out, _ = run_inproc(
            capfd, "search", "--kind", "word", "--mode", "unsigned",
            "--k", "1", "--colours", "2", "--lengths", "1,2",
            "--alphabet", alphabet, "--seed", "9",
        )
        assert code in (0, 3)

    def test_pipeline_cli(self, capfd):
        code, out, _ = run_inproc(
            capfd, "pipeline", "--mode", "unsigned", "--k", "1",
            "--colours", "2", "--family", "support-size-mod",
            "--lengths", "2,3", "--samples", "10", "--seed", "1",
        )
        assert code in (0, 3)
        if code == 0:
            data = json.loads(out)
            assert data["verification"]["passed"] is True

    def test_span_neg_t_and_letters(self, capfd):
        alphabet = json.dumps({"levels": [["0", "a"]], "zero": "0"})
        words = json.dumps([
            {"k": 1, "mode": "signed", "symbols": [{"var": 1}]},
        ])
        code, out, _ = run_inproc(
            capfd, "span", "--kind", "neg-t", "--alphabet", alphabet,
            "--words", words,
        )
        assert code == 0
        got = [json.loads(line)["symbols"] for line in out.strip().splitlines()]
        # signs in the (-T) span come only from the exponent parity, and the
        # odd power of a single v_1 is variable-free, so only v_1 survives
        assert got == [[{"var": 1}]]
        code, out, _ = run_inproc(
            capfd, "span", "--kind", "letters", "--alphabet", alphabet,
            "--words", words,
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_dist_sequences(self, capfd):
        a = json.dumps([{"k": 1, "mode": "signed", "entries": [[0, 1]]}])
        b = json.dumps([{"k": 1, "mode": "signed", "entries": [[0, -1]]}])
        code, out, _ = run_inproc(capfd, "dist", "--kind", "vector-seq",
                                  "--a", a, "--b", b)
        assert code == 0 and json.loads(out) == {"dist": 2}
        alphabet = json.dumps({"levels": [["0", "a"]], "zero": "0"})
        x = json.dumps([{"k": 1, "mode": "signed", "symbols": [{"var": 1}]}])
        y = json.dumps([{"k": 1, "mode": "signed", "symbols": [{"var": -1}]}])
        code, out, _ = run_inproc(capfd, "dist", "--kind", "word-seq",
                                  "--alphabet", alphabet, "--a", x, "--b", y)
        assert code == 0 and json.loads(out) == {"dist": 2}

    def test_tetris_word(self, capfd):
        alphabet = json.dumps({"levels": [["0", "a"]], "zero": "0"})
        code, out, _ = run_inproc(
            capfd, "tetris", "--kind", "word", "--alphabet", alphabet,
            "--input",
            '{"k":2,"mode":"signed","symbols":[{"var":2},{"var":-1},{"letter":"a"}]}',
        )
        assert code == 0
        assert json.loads(out)["symbols"] == [
            {"var": 1}, {"letter": "0"}, {"letter": "a"}]

    def test_perfect_sets_single_index(self, capfd):
        words = json.dumps([
            {"k": 1, "mode": "unsigned", "symbols": [{"var": 1}]},
            {"k": 1, "mode": "unsigned",
             "symbols": [{"letter": [1]}, {"var": 1}]},
            {"k": 1, "mode": "unsigned",
             "symbols": [{"var": 1}, {"letter": []}, {"var": 1}, {"letter": [1]}]},
            {"k": 1, "mode": "unsigned", "symbols": [{"var": 1}] * 8},
        ])
        code, out, _ = run_inproc(capfd, "perfect-sets", "--words", words,
                                  "--index", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["index"] == 0

    def test_pipeline_exhausted_exit_3(self, capfd):
        # with a length-1 first generator, substituting its variable shifts
        # the first variable position of every combined element by one, so
        # position parity can never become monochromatic
        code, out, _ = run_inproc(
            capfd, "pipeline", "--mode", "unsigned", "--k", "1",
            "--colours", "2", "--family", "min-position-mod",
            "--lengths", "1,2", "--samples", "5", "--seed", "0",
        )
        assert code == 3
        assert json.loads(out)["exhausted"] is True

    def test_stdin_input(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "blockramsey.cli", "tetris",
             "--kind", "vector", "--input", "-"],
            input='{"k":2,"mode":"signed","entries":[[1,-2]]}',
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"entries": [[1, -1]], "k": 1,
                                           "mode": "signed"}

    def test_output_is_canonical(self, capfd):
        code, out, _ = run_inproc(
            capfd, "search", "--mode", "unsigned", "--k", "1", "--N", "4",
            "--m", "2", "--colours", "2", "--family", "support-size-mod",
        )
        doc = out.strip()
        assert doc == json.dumps(json.loads(doc), sort_keys=True,
                                 separators=(",", ":"))
