"""The package root re-exports each module's public names, and the README's
examples run as written."""

import re
import shlex
from pathlib import Path

import conedet
import conedet.determinants
import conedet.pa_oracle
import conedet.quadrature
import conedet.special_functions
from conedet.cli import main

MODULES = (conedet.determinants, conedet.pa_oracle, conedet.quadrature, conedet.special_functions)

# the package root's names when it still listed them one by one
ROOT_NAMES = [
    "BarnesArgs",
    "ConeGeometry",
    "CurvedDiskGeometry",
    "EvalResult",
    "IdentityReport",
    "PAIntegralBreakdown",
    "QuadratureError",
    "__version__",
    "adaptive_quadrature",
    "annulus_ratio_closed_form",
    "barnes_zeta_prime0",
    "barnes_zeta_prime0_orbifold",
    "curvature_from_radius",
    "digamma",
    "fp_asymptotics_reference",
    "hurwitz_zeta",
    "hurwitz_zeta_sderiv",
    "im_log_gamma",
    "log_gamma",
    "logdet_flat_disk",
    "logdet_hyperbolic_cone",
    "logdet_orbifold_cone",
    "logdet_poincare_cap",
    "pa_annulus_numeric",
    "pa_disk_numeric",
    "rescale_logdet",
    "small_eta_asymptotics",
    "verify_identities",
    "zeta0_spindle",
    "zeta0_unit_disk_cone",
    "zeta_prime0_spherical_cone",
    "zeta_prime0_spindle",
    "zeta_prime0_unit_disk_cone",
]

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, language):
    """The first fenced block of the language under the README heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


class TestRootNames:
    def test_all_is_the_joined_module_lists(self):
        joined = [name for module in MODULES for name in module.__all__]
        assert conedet.__all__ == [*joined, "__version__"]
        assert len(set(conedet.__all__)) == len(conedet.__all__)

    def test_every_root_name_is_the_module_object(self):
        for module in MODULES:
            for name in module.__all__:
                assert getattr(conedet, name) is getattr(module, name), (module.__name__, name)

    def test_names_are_unchanged(self):
        assert sorted(conedet.__all__) == ROOT_NAMES


class TestReadme:
    def test_command_line_examples_run(self, capsys):
        commands = [shlex.split(line) for line in _block("Command line", "sh").splitlines()]
        assert commands
        for argv in commands:
            assert argv[0] == "conedet", argv
            rc = main(argv[1:])
            out, err = capsys.readouterr()
            want = 2 if argv[1:] == ["verify", "--tol", "1e-16", "--format", "csv"] else 0
            assert (rc, err) == (want, ""), argv
            assert out, argv

    def test_quick_start_runs(self, capsys):
        exec(_block("Quick start", "python"), {})
        value, abs_err, tag = capsys.readouterr().out.splitlines()[0].split()
        assert tag == "hyperbolic-cone" and float(abs_err) > 0.0
