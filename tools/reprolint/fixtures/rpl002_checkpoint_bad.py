# reprolint: treat-as=repro/sparse/fixture_ckpt.py
"""Known-bad RPL002 fixture: pairing and coverage failures.

``Optimizer``/``Callback``/``TrainLoop``/``GanDensityBalancer`` are
stateful roots, so classes deriving from them (by bare name), and the
roots themselves, are checked.
"""


class Optimizer:
    """Stand-in root; defines neither half of the pair."""


class BadOptimizer(Optimizer):
    """Pairs state_dict/load_state_dict but forgets an attribute."""

    def __init__(self):
        self.momentum = {}  # expect: RPL002
        self.lr = 0.1

    def state_dict(self):
        return {"lr": self.lr}

    def load_state_dict(self, state):
        self.lr = state["lr"]


class HalfPaired(Optimizer):  # expect: RPL002
    """Writes checkpoints nothing can restore: no load_state_dict."""

    def __init__(self):
        self.steps = []

    def state_dict(self):
        return {"steps": list(self.steps)}


class NoCkpt(Callback):  # expect: RPL002  # noqa: F821
    """Mutable state, no state_dict anywhere in the hierarchy."""

    def __init__(self):
        self.seen = []


class LMPerplexityCallback(Callback):  # noqa: F821
    """LM eval tracker: pairs the hooks but forgets the token tallies.

    Modeled on the language-model workload's stateful eval accumulators
    (running loss over tokens) — a resumed run would restart the tallies
    empty and report a wrong perplexity.
    """

    def __init__(self):
        self.val_losses = []
        self.token_counts = []  # expect: RPL002

    def state_dict(self):
        return {"val_losses": list(self.val_losses)}

    def load_state_dict(self, state):
        self.val_losses = list(state["val_losses"])


class LMSamplerState(TrainLoop):  # expect: RPL002  # noqa: F821
    """Greedy-decode cache with no checkpoint hooks at all.

    A char-LM trainer that memoizes prompt prefixes between epochs: the
    cache is mutable cross-step state, so the hierarchy must expose
    state_dict/load_state_dict.
    """

    def __init__(self):
        self.prefix_cache = {}


class ExemptEngine(TrainLoop):  # noqa: F821
    """CHECKPOINT_EXEMPT silences declared-derived attributes only."""

    # Fixture stand-in for a pure strategy object.
    CHECKPOINT_EXEMPT = {"schedule"}

    def __init__(self):
        self.schedule = make_schedule()  # exempt: no finding  # noqa: F821
        self.history = []  # expect: RPL002
        self._scratch = {}  # underscore attrs are never checked

    def state_dict(self):
        return {}

    def load_state_dict(self, state):
        pass


class HookedLoop(TrainLoop):  # noqa: F821
    """A loop core whose shared state_dict asks each subclass for its parts."""

    def state_dict(self):
        return {"history": self.history, **self._loop_state()}

    def load_state_dict(self, state):
        self.history = state["history"]
        self._load_loop_state(state)


class GANTrainer(HookedLoop):
    """Hooks reached from the base state_dict count; a leak still fires."""

    def __init__(self):
        self.history = []
        self.data_rng = make_rng()  # reached through _loop_state  # noqa: F821
        self.leaky_counter = []  # expect: RPL002

    def _loop_state(self):
        return {"data_rng": self.data_rng.bit_generator.state}

    def _load_loop_state(self, state):
        self.data_rng.bit_generator.state = state["data_rng"]


class GanDensityBalancer:
    """A root by its own name: its transfer ledger must be checkpointed."""

    def __init__(self):
        self.transfers = []
        self.leaky_counter = []  # expect: RPL002

    def state_dict(self):
        return {"transfers": list(self.transfers)}

    def load_state_dict(self, state):
        self.transfers = list(state["transfers"])
