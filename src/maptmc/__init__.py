"""Model checker for multi-agent systems with timed periodic tasks."""

from .errors import (BudgetExceeded, DivisionByZero, MalformedModel,
                     MalformedState, MaptError, MissingComponent, NotEnabled,
                     Overflow, ParseError, PredicateError, UnknownReference,
                     ValidationError)
from .layers import (CutSpec, MandatoryChain, best_cut, clustered_next_border,
                     find_cuts, format_cuts, load_cuts, mandatory_chain, next_border,
                     parse_cuts)
from .mc import (CheckResult, CheckStats, Heuristic, SweepResult, builtin_heuristics,
                 check, parse_query, sweep_indicators)
from .model import (Agent, MaptModel, Transform, Transition, ValidationReport,
                    dumps_model, eval_transform, lcm_periods, load_model,
                    loads_model, model_from_dict, model_to_dict, save_model,
                    validate, validate_acyclicity, validate_strong_liveness)
from .petri import (EquivResult, HlNet, Marking, enabled_net, fire,
                    state_space_equiv, structure_text, translate)
from .semantics import (Delay, Exploration, Fire, Reset, State, ZoneInfo,
                        abstract_reachable, explore, initial_state, project_word,
                        step, zone_info)

__version__ = "0.1.0"
