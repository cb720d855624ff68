"""Key=value config parsing, typed coercion, and exhaustive validation."""

import pytest

from gbrec.cli import main
from gbrec.config import (
    FALSE_WORDS,
    TRUE_WORDS,
    ConfigError,
    Hyperparams,
    SynthConfig,
    coerce_value,
    load_typed,
    parse_kv_file,
)


def write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# parse_kv_file


def test_parse_ignores_comments_and_blank_lines(tmp_path):
    path = write(
        tmp_path,
        "# full-line comment\n"
        "\n"
        "dim = 16   # trailing comment\n"
        "  activation=relu\n"
        "eval_ks = 3, 5\n",
    )
    assert parse_kv_file(path) == {"dim": "16", "activation": "relu", "eval_ks": "3, 5"}


def test_parse_collects_all_syntax_problems_with_locations(tmp_path):
    path = write(
        tmp_path,
        "dim = 16\n"
        "just some words\n"
        "= 3\n"
        "dim = 32\n",
    )
    with pytest.raises(ConfigError) as exc:
        parse_kv_file(path)
    problems = exc.value.problems
    assert len(problems) == 3
    assert f"{path}:2" in problems[0] and "key = value" in problems[0]
    assert f"{path}:3" in problems[1] and "empty key" in problems[1]
    assert f"{path}:4" in problems[2] and "duplicate key 'dim'" in problems[2]
    # every problem surfaces in the exception message, not just the first
    for p in problems:
        assert p in str(exc.value)


def test_parse_value_may_contain_equals(tmp_path):
    path = write(tmp_path, "note = a=b\n")
    assert parse_kv_file(path) == {"note": "a=b"}


def test_parse_locates_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"dim = 16\r\nalpha = \xff\rbeta = 0.1\n= \x90\n")
    with pytest.raises(ConfigError) as exc:
        parse_kv_file(str(path))
    assert exc.value.problems == [f"{path}:2: not valid UTF-8", f"{path}:4: not valid UTF-8"]


def test_train_with_a_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"dim = 8\nepochs = \xff\n")
    code = main(["train", "--data", str(tmp_path / "no-data"), "--outdir", str(tmp_path / "m"), "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: invalid configuration:\n  {path}:2: not valid UTF-8\n"


# ---------------------------------------------------------------------------
# coerce_value


def test_coerce_bool_words():
    for word in TRUE_WORDS:
        assert coerce_value(word, False) is True
        assert coerce_value(word.upper(), False) is True
    for word in FALSE_WORDS:
        assert coerce_value(word, True) is False
    with pytest.raises(ValueError, match="boolean"):
        coerce_value("2", True)


def test_coerce_bool_checked_before_int():
    # bool is an int subclass; a bool template must never fall through to int()
    assert coerce_value("1", True) is True
    assert coerce_value("0", True) is False


def test_coerce_int_float_str():
    assert coerce_value("42", 0) == 42
    with pytest.raises(ValueError):
        coerce_value("4.5", 0)
    assert coerce_value("1e-3", 0.0) == 1e-3
    assert coerce_value("plain text", "") == "plain text"


def test_coerce_int_tuple():
    assert coerce_value("3,5, 10", ()) == (3, 5, 10)
    assert coerce_value("3 5", ()) == (3, 5)
    with pytest.raises(ValueError, match="integer list"):
        coerce_value("  ", ())
    with pytest.raises(ValueError):
        coerce_value("3,x", ())


def test_coerce_rejects_unsupported_template():
    with pytest.raises(ValueError, match="unsupported config type"):
        coerce_value("x", [1])


# ---------------------------------------------------------------------------
# load_typed


def test_load_defaults_when_no_file_or_overrides():
    hp = load_typed(Hyperparams, None, {})
    assert hp == Hyperparams()


def test_load_file_values_override_defaults(tmp_path):
    path = write(tmp_path, "dim = 16\nalpha = 0.3\nrenormalize_alpha = yes\nactivation = tanh\n")
    hp = load_typed(Hyperparams, path, {})
    assert hp.dim == 16
    assert hp.alpha == 0.3
    assert hp.renormalize_alpha is True
    assert hp.activation == "tanh"
    assert hp.beta == Hyperparams().beta  # untouched field keeps its default


def test_load_overrides_beat_file(tmp_path):
    path = write(tmp_path, "dim = 16\n")
    hp = load_typed(Hyperparams, path, {"dim": 8, "alpha": None})
    assert hp.dim == 8
    assert hp.alpha == Hyperparams().alpha  # None override is skipped


def test_load_refuses_eval_ks_as_an_unknown_key(tmp_path):
    # the evaluation cutoffs are gbrec evaluate's --ks, not a hyperparameter
    path = write(tmp_path, "dim = 16\neval_ks = 1,2\n")
    with pytest.raises(ConfigError) as exc:
        load_typed(Hyperparams, path, {})
    assert exc.value.problems == [f"{path}: unknown key 'eval_ks'"]


def test_load_collects_unknown_keys_bad_types_and_range_problems(tmp_path):
    path = write(tmp_path, "mystery = 1\ndim = notanumber\nalpha = 1.5\n")
    with pytest.raises(ConfigError) as exc:
        load_typed(Hyperparams, path, {"also_unknown": 3, "beta": -1.0})
    problems = exc.value.problems
    assert any("unknown key 'mystery'" in p for p in problems)
    assert any("key 'dim'" in p for p in problems)
    assert any("override: unknown key 'also_unknown'" in p for p in problems)
    assert any("alpha" in p for p in problems)  # range check from validate()
    assert any("beta" in p for p in problems)
    assert len(problems) == 5
    assert str(exc.value).startswith("invalid configuration:")


def test_a_range_problem_names_the_file_that_set_the_value(tmp_path):
    # num_layers comes from the file but a flag replaces it, and beta from the flags alone
    path = write(tmp_path, "dim = 0\nalpha = inf\nnum_layers = -1\n")
    with pytest.raises(ConfigError) as exc:
        load_typed(Hyperparams, path, {"num_layers": -2, "beta": -1.0})
    assert exc.value.problems == [
        f"{path}: alpha must be finite, got inf",
        f"{path}: dim must be >= 1, got 0",
        "num_layers must be >= 0, got -2",
        "beta must be >= 0, got -1.0",
    ]
    path = write(tmp_path, "num_users = 1\n")
    with pytest.raises(ConfigError) as exc:
        load_typed(SynthConfig, path, {})
    assert exc.value.problems == [f"{path}: num_users must be >= 2, got 1"]


def test_train_with_an_out_of_range_config_value_names_the_file_and_exits_2(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("dim = 0\n", encoding="utf-8")
    code = main(["train", "--data", str(tmp_path / "no-data"), "--outdir", str(tmp_path / "m"), "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: invalid configuration:\n  {path}: dim must be >= 1, got 0\n"
