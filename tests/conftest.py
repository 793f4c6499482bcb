"""One hypothesis profile for the whole suite. It sets no per-example
deadline: an example may run whole simulations, whose wall time follows the
host's load. Each test still sets its own max_examples."""
from hypothesis import settings

settings.register_profile("floodsim", deadline=None)
settings.load_profile("floodsim")
