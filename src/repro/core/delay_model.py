"""Small-delay-fault model (Section IV).

An SDF adds an *extra* sub-cycle delay ``d`` to one wire for a single cycle.
Delays are specified as fractions of the clock period (the paper sweeps 10 %
to 90 %), since a designer without silicon data examines the whole range.
"""

#: The delay sweep the paper's figures use (10 % .. 90 % of the period).
DEFAULT_DELAY_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)
