"""Monte Carlo simulator for two-way time-of-flight localization of
energy-harvesting nanonodes over a THz link."""

from nanoloc.channel import (ChannelParams, LinkBudgetResult, SPEED_OF_LIGHT_M_S,
                             absorption_coefficient, load_absorption_table,
                             raw_resolution, received_power)
from nanoloc.energy import (EnergySaturationError, EnergyState, HarvesterParams,
                            can_afford, consume, cycle_index, energy_at_cycle,
                            harvest)
from nanoloc.locate import (AnchorSet, DegenerateGeometryError, LocationEstimate,
                            localization_error, trilaterate)
from nanoloc.ranging import (FAILURE_LINK_INFEASIBLE, FAILURE_NODE_DEPLETED,
                             RadioParams, RangeMeasurement, RangeMeasurementSet,
                             exchange, measure_all)
from nanoloc.sim import (SimConfig, Topology, TrialReport, WorldState,
                         build_topology, default_config, initial_world,
                         run_iteration, run_simulation, default_channel,
                         default_harvester, default_radio)

__version__ = "0.1.0"

__all__ = [
    "AnchorSet", "ChannelParams", "DegenerateGeometryError",
    "EnergySaturationError", "EnergyState", "FAILURE_LINK_INFEASIBLE",
    "FAILURE_NODE_DEPLETED", "HarvesterParams", "LinkBudgetResult",
    "LocationEstimate", "RadioParams", "RangeMeasurement",
    "RangeMeasurementSet", "SPEED_OF_LIGHT_M_S", "SimConfig", "Topology",
    "TrialReport", "WorldState", "absorption_coefficient", "build_topology",
    "can_afford", "consume", "cycle_index", "default_config",
    "energy_at_cycle", "exchange", "harvest", "initial_world",
    "load_absorption_table", "localization_error", "measure_all",
    "raw_resolution", "received_power", "run_iteration", "run_simulation",
    "default_channel", "default_harvester", "default_radio", "trilaterate",
]
