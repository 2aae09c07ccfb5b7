"""Toolkit for mask-sequence post-processing at desk scale.

The package root holds only ``__version__``: import each name from the
module that defines it (``from voskit.losses import total_loss``). The
README's library map says what each module does."""

__version__ = "0.1.0"
