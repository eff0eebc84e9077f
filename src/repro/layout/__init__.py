"""Position-matrix embedding (stress majorization) and the 11 competitor
layout methods of §7.1."""
