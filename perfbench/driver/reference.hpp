// The host-speed reference: fixed work, owned by the benchmark, timed next
// to each measured slice of a workload.
//
// On a shared host the same code runs at different speeds from minute to
// minute: other tenants contend for the cores' execution units and caches,
// and no CPU clock leaves that out.  The benchmark therefore times this
// fixed work right before each slice (ingest segment, verify session,
// loopback burst, set-up repeat) and scales the slice's CPU time to the
// speed at which the reference work takes kReferenceSeconds.  The work
// shares no code with the program, so a change to the program moves the
// scaled figures exactly as it moves the raw ones.
#pragma once

namespace perfbench {

/// CPU seconds the reference work takes on the host the figures are scaled
/// to: its median on the 4-vCPU Xeon host the benchmark was tuned on.
constexpr double kReferenceSeconds = 0.032;

/// Builds the reference work's table; call once before anything is timed.
void prepare_reference();

/// Runs the reference work once on this thread and returns the CPU seconds
/// it took: SHA-512-style rounds over 8 lanes (AVX-512 where the host has
/// it, as the program's hashing does), a scalar mixing loop, and a random
/// walk over a 16 MiB table.
double reference_s();

/// `cpu` seconds measured next to a reference run of `reference` seconds,
/// scaled to the reference host's speed.
inline double at_reference_speed(double cpu, double reference) {
  return reference > 0 ? cpu * kReferenceSeconds / reference : cpu;
}

}  // namespace perfbench
