import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eigentrack.config import (
    MAX_EXPRESSION_DEPTH,
    BinOp,
    CoeffSpec,
    CoefficientError,
    ConfigError,
    Neg,
    Num,
    Pow,
    Var,
    eval_coefficient,
    parse_config,
    parse_expression,
)
from tests.conftest import bundled_config_text

MINIMAL = """
[problem]
box = 0.4, 1.0
window = 0, 270
c11 = mu1^-2
c12 = 1
c21 = 1
c22 = 0.7^-2

[tolerances]
w1 = 1
w2 = 200
t_pi = 0.21
t_lambda = 0.001
"""


class TestParseConfig:
    def test_paper_1d(self):
        cfg = parse_config(bundled_config_text("paper_1d.cfg"))
        assert cfg.dim == 1
        assert cfg.box == ((0.4, 1.0),)
        assert cfg.window == (0.0, 270.0)
        assert (cfg.w1, cfg.w2) == (1.0, 200.0)
        assert (cfg.t_pi, cfg.t_lambda) == (0.21, 0.001)

    def test_paper_2d(self):
        cfg = parse_config(bundled_config_text("paper_2d.cfg"))
        assert cfg.dim == 2
        assert cfg.box == ((0.8, 1.05), (0.8, 1.05))
        assert (cfg.t_pi, cfg.t_lambda) == (0.57, 0.015)

    def test_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.mesh_n == 65
        assert cfg.initial_level == 1
        assert cfg.max_level == 10

    def test_degenerate_window_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("window = 0, 270", "window = 270, 270"))

    def test_degenerate_box_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("box = 0.4, 1.0", "box = 1.0, 0.4"))

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="walrus"):
            parse_config(MINIMAL + "\nwalrus = 3\n")

    def test_missing_key_named(self):
        broken = MINIMAL.replace("t_pi = 0.21\n", "")
        with pytest.raises(ConfigError, match="t_pi"):
            parse_config(broken)

    def test_t_pi_range(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("t_pi = 0.21", "t_pi = 1.5"))

    def test_asymmetric_coefficient_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("c21 = 1", "c21 = 2"))
        # the off-diagonal entries are compared as parsed trees, not as text
        parse_config(MINIMAL.replace("c21 = 1", "c21 = (1.0)"))

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("box = 0.4, 1.0", "box = 0.4, nan", "box"),
            ("box = 0.4, 1.0", "box = -inf, 1.0", "box"),
            ("window = 0, 270", "window = 0, inf", "window"),
            ("w1 = 1", "w1 = nan", "w1"),
            ("w2 = 200", "w2 = inf", "w2"),
            ("t_lambda = 0.001", "t_lambda = nan", "t_lambda"),
            ("t_lambda = 0.001", "t_lambda = inf", "t_lambda"),
        ],
    )
    def test_non_finite_number_named(self, old, new, key):
        with pytest.raises(ConfigError, match=f"key '{key}': numbers must be finite"):
            parse_config(MINIMAL.replace(old, new))

    def test_zero_weights_rejected(self):
        broken = MINIMAL.replace("w1 = 1", "w1 = 0").replace("w2 = 200", "w2 = 0")
        with pytest.raises(ConfigError):
            parse_config(broken)


# every key of the schema, each optional one set to a value other than its default
FULL = {
    "problem": {
        "box": "0.4, 1.0", "window": "0, 270",
        "c11": "mu1^-2", "c12": "1", "c21": "1", "c22": "0.7^-2", "mesh_n": "33",
    },
    "tolerances": {"w1": "1", "w2": "200", "t_pi": "0.21", "t_lambda": "0.001"},
    "grid": {"initial_level": "2", "max_level": "7"},
    "output": {"cache_dir": "cache", "output_dir": "out"},
}
FLOATS = [("tolerances", key) for key in ("w1", "w2", "t_pi", "t_lambda")]
INTEGERS = [("problem", "mesh_n"), ("grid", "initial_level"), ("grid", "max_level")]
REQUIRED = [("problem", key) for key in ("box", "window", "c11", "c12", "c21", "c22")] + FLOATS
DEFAULTS = [
    ("problem", "mesh_n", 65),
    ("grid", "initial_level", 1),
    ("grid", "max_level", 10),
    ("output", "cache_dir", Path(".eigentrack_cache")),
    ("output", "output_dir", Path("eigentrack_out")),
]


def config_text(sections) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


def without(section: str, key: str | None = None) -> dict:
    """FULL less one key or, when ``key`` is None, one whole section."""
    sections = {name: dict(keys) for name, keys in FULL.items() if key or name != section}
    if key:
        del sections[section][key]
    return sections


class TestSchema:
    def test_full_config_reads_every_key(self):
        cfg = parse_config(config_text(FULL))
        assert (cfg.mesh_n, cfg.initial_level, cfg.max_level) == (33, 2, 7)
        assert (cfg.cache_dir, cfg.output_dir) == (Path("cache"), Path("out"))

    @pytest.mark.parametrize("section, key", REQUIRED)
    def test_required_key_missing(self, section, key):
        with pytest.raises(ConfigError) as caught:
            parse_config(config_text(without(section, key)))
        assert str(caught.value) == f"missing key {key!r} in section [{section}]"

    @pytest.mark.parametrize("section", ["problem", "tolerances"])
    def test_required_section_missing(self, section):
        with pytest.raises(ConfigError) as caught:
            parse_config(config_text(without(section)))
        assert str(caught.value) == f"missing section [{section}]"

    @pytest.mark.parametrize("section, key", INTEGERS + FLOATS)
    def test_non_numeric_text_named(self, section, key):
        sections = without(section, key)
        sections[section][key] = "ten"
        noun = "an integer" if (section, key) in INTEGERS else "a number"
        with pytest.raises(ConfigError) as caught:
            parse_config(config_text(sections))
        assert str(caught.value) == f"key {key!r}: expected {noun}, got 'ten'"

    @pytest.mark.parametrize("section, key, default", DEFAULTS)
    def test_optional_key_defaults(self, section, key, default):
        assert getattr(parse_config(config_text(without(section, key))), key) == default


class TestEvalCoefficient:
    def test_paper_1d_family(self):
        spec = CoeffSpec.from_sources(1, "mu1^-2", "1", "1", "0.7^-2")
        mat = eval_coefficient(spec, (0.4,))
        assert mat == pytest.approx(np.array([[6.25, 1.0], [1.0, 0.7**-2]]), rel=1e-12)

    def test_identity(self):
        spec = CoeffSpec.from_sources(2, "1", "0", "0", "1")
        assert np.array_equal(eval_coefficient(spec, (0.3, 0.9)), np.eye(2))

    def test_paper_2d_family(self):
        spec = CoeffSpec.from_sources(2, "mu1^-2", "0.8/mu2", "0.8/mu2", "mu2^-2")
        mat = eval_coefficient(spec, (1.0, 1.0))
        assert mat == pytest.approx(np.array([[1.0, 0.8], [0.8, 1.0]]))

    def test_deterministic(self):
        spec = CoeffSpec.from_sources(1, "mu1^-2", "1", "1", "0.7^-2")
        a = eval_coefficient(spec, (0.513,))
        b = eval_coefficient(spec, (0.513,))
        assert a.tobytes() == b.tobytes()

    def test_division_by_zero(self):
        spec = CoeffSpec.from_sources(1, "1/mu1", "0", "0", "1")
        with pytest.raises(CoefficientError):
            eval_coefficient(spec, (0.0,))

    def test_not_spd(self):
        spec = CoeffSpec.from_sources(1, "1", "2", "2", "1")  # det < 0
        with pytest.raises(CoefficientError):
            eval_coefficient(spec, (0.5,))

    def test_spd_across_boxes(self):
        rng = np.random.default_rng(5)
        spec_1d = CoeffSpec.from_sources(1, "mu1^-2", "1", "1", "0.7^-2")
        for mu in rng.uniform(0.4, 1.0, size=1000):
            eval_coefficient(spec_1d, (mu,))
        spec_2d = CoeffSpec.from_sources(2, "mu1^-2", "0.8/mu2", "0.8/mu2", "mu2^-2")
        for mu in rng.uniform(0.8, 1.05, size=(1000, 2)):
            eval_coefficient(spec_2d, tuple(mu))

    def test_expression_grammar(self):
        spec = CoeffSpec.from_sources(2, "(mu1 + 2) * mu2 - 3 / (1 + 1)", "0", "0", "5")
        mat = eval_coefficient(spec, (1.0, 2.0))
        assert mat[0, 0] == pytest.approx(4.5)
        assert parse_expression("-mu1^2", 1) == Neg(Pow(Var(0), 2))
        assert parse_expression("mu1 ^ (-2)", 1) == Pow(Var(0), -2)
        assert parse_expression("2.5e-3 /\n mu1", 1) == BinOp("/", Num(0.0025), Var(0))

    @given(st.data())
    def test_rendered_trees_parse_back(self, data):
        dim = data.draw(st.integers(1, 3))
        leaves = st.one_of(
            st.floats(0.0, 1e6).map(lambda x: Num(abs(x))),   # -0.0 would render as a negation
            st.integers(0, dim - 1).map(Var),
        )
        tree = data.draw(
            st.recursive(
                leaves,
                lambda sub: st.one_of(
                    sub.map(Neg),
                    st.builds(Pow, sub, st.integers(-9, 9)),
                    st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
                ),
                max_leaves=12,
            )
        )
        assert parse_expression(render(tree), dim) == tree

    def test_bad_expression_rejected(self):
        for text, dim in [
            ("mu1^mu1", 1),
            ("mu1^2.0", 1),
            ("mu1^2^2", 1),
            ("mu1**2", 1),      # ^ is the only power operator
            ("sin(mu1)", 1),
            ("mu1 // 2", 1),
            ("mu1 % 2", 1),
            ("True", 1),
            ("1j", 1),
            ("mu0", 2),
            ("mu2", 1),         # exceeds dimension
            ("2 mu1", 1),
            ("", 1),
            ("mu1x", 1),
        ]:
            with pytest.raises(ConfigError):
                CoeffSpec.from_sources(dim, text, "0", "0", "1")


class TestExpressionDepth:
    # Python's expression tree of "-" * k + "(1 + mu1)" is k + 2 levels deep
    at_limit = "-" * (MAX_EXPRESSION_DEPTH - 2) + "(1 + mu1)"
    over_limit = "-" * (MAX_EXPRESSION_DEPTH - 1) + "(1 + mu1)"

    def test_at_the_limit_parses_compares_and_evaluates(self):
        spec = CoeffSpec.from_sources(1, self.at_limit, "0", "0", "1")
        CoeffSpec.from_sources(1, "2", self.at_limit, self.at_limit, "2")   # c12 == c21
        frames, frame = 0, sys._getframe()
        while frame is not None:
            frames, frame = frames + 1, frame.f_back

        def evaluate_below(levels):
            return evaluate_below(levels - 1) if levels else eval_coefficient(spec, (0.5,))

        # with half the recursion limit already used up
        mat = evaluate_below(sys.getrecursionlimit() // 2 - frames)
        assert mat[0, 0] == 1.5

    def test_one_level_more_is_rejected(self):
        with pytest.raises(ConfigError, match=f"nested {MAX_EXPRESSION_DEPTH + 1} levels deep"):
            parse_expression(self.over_limit, 1)
        with pytest.raises(ConfigError, match="key 'c21'"):
            CoeffSpec.from_sources(1, "1", "0", self.over_limit, "1")


def render(tree) -> str:
    """The ^ syntax of an expression tree, every operand parenthesised."""
    if isinstance(tree, Num):
        return repr(tree.value)
    if isinstance(tree, Var):
        return f"mu{tree.index + 1}"
    if isinstance(tree, Neg):
        return f"-({render(tree.arg)})"
    if isinstance(tree, Pow):
        return f"({render(tree.base)})^{tree.exponent}"
    return f"({render(tree.left)}) {tree.op} ({render(tree.right)})"


def test_readme_example_is_the_bundled_1d_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Configuration files")[1].split("```ini\n")[1].split("```")[0]
    assert parse_config(example) == parse_config(bundled_config_text("paper_1d.cfg"))


def test_bundled_configs_equal_the_top_level_copies():
    # configs/ serves the benchmark and the README, the package copies serve
    # the tests and installed users; they must not drift apart
    top = Path(__file__).resolve().parents[1] / "configs"
    package = resources.files("eigentrack") / "configs"
    names = sorted(p.name for p in top.glob("*.cfg"))
    assert names == sorted(p.name for p in package.iterdir() if p.name.endswith(".cfg"))
    assert names
    for name in names:
        assert (package / name).read_bytes() == (top / name).read_bytes(), name
