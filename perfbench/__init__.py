"""retta's benchmark: closed-loop workloads, output checks and an outside-in tracer."""
