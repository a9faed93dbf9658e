"""Package metadata and the names the package root exports."""

import inspect
import tomllib
from pathlib import Path

import multicast_aoi
from multicast_aoi import analytics, delay_models, experiments, simulator

ROOT_NAMES = {
    "AgeResult", "DEFAULT_SEED", "DelayModel", "EarliestK", "HyperExponential",
    "OrderStatMoments", "PreSelectedK", "RandomStream", "SCHEMES", "Scheme",
    "ShiftedExponential", "SimConfig", "SimResult", "SimulationError", "StoppingPolicy",
    "SweepRow", "ValidationCell", "ValidationReport", "WaitForAll", "age_earliest_k",
    "age_earliest_k_approx", "age_preselected_k", "age_preselected_k_approx",
    "age_preselected_k_process", "age_wait_for_all", "age_wait_for_all_general", "harmonic",
    "harmonic2", "optimal_alpha", "optimal_k_closed_form", "optimal_k_exact",
    "order_stat_moments", "partial_order_mean_sum", "replicate", "run_fig4", "run_fig5",
    "run_fig6", "run_rounds", "run_sweep", "run_validation",
}
MODULES = (analytics, delay_models, experiments, simulator)


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert multicast_aoi.__version__ == declared


def test_root_exports_exactly_the_public_names():
    public = {name for name, value in vars(multicast_aoi).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(ROOT_NAMES) == 40
    assert public == ROOT_NAMES
    assert isinstance(multicast_aoi.__version__, str)


def test_each_root_name_is_its_module_object():
    owners = [name for module in MODULES for name in module.__all__]
    assert sorted(owners) == sorted(ROOT_NAMES)  # each name has one module
    for module in MODULES:
        for name in module.__all__:
            value = getattr(multicast_aoi, name)
            assert value is vars(module)[name]
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__
