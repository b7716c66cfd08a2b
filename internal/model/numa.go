package model

import (
	"fmt"

	"repro/internal/queueing"
	"repro/internal/units"
)

// The paper closes by noting the model "can be extended in a
// straightforward way to model additional memory architectures such as
// multi-socket" (§VIII). This file is that extension: a symmetric
// multi-socket platform where a fraction of each socket's misses resolve
// to a remote socket over an interconnect with its own latency adder and
// bandwidth ceiling.
//
// The construction mirrors Eq. 5: the miss population splits into a
// local share (socket-local channels, local compulsory latency) and a
// remote share (remote channels plus the interconnect hop), each with a
// self-consistent loaded latency. Remote traffic loads BOTH the remote
// socket's channels (symmetrically, every socket serves its peers'
// remote accesses) and the interconnect links.

// NUMAPlatform describes a symmetric multi-socket machine.
type NUMAPlatform struct {
	Name    string
	Sockets int
	// ThreadsPerSocket and CoresPerSocket describe one socket.
	ThreadsPerSocket int
	CoresPerSocket   int
	CoreSpeed        units.Hertz
	LineSize         units.Bytes

	// LocalCompulsory is the unloaded latency to socket-local DRAM;
	// RemoteAdder is the extra unloaded latency of a remote hop (QPI-era
	// parts measured ~50–70 ns).
	LocalCompulsory units.Duration
	RemoteAdder     units.Duration

	// SocketPeakBW is one socket's deliverable DRAM bandwidth;
	// LinkPeakBW is the interconnect bandwidth available to one socket's
	// remote traffic.
	SocketPeakBW units.BytesPerSecond
	LinkPeakBW   units.BytesPerSecond

	// RemoteFraction is the fraction of LLC misses served by a remote
	// socket (0 = perfect NUMA locality, 1−1/Sockets = uniform
	// interleaving).
	RemoteFraction float64

	// Queue shapes the queuing delay of both DRAM and link (utilization
	// normalized to each resource's own peak).
	Queue queueing.Curve
}

// Validate reports configuration errors. Failures wrap
// ErrInvalidPlatform for errors.Is classification.
func (np NUMAPlatform) Validate() error {
	switch {
	case np.Sockets < 1:
		return fmt.Errorf("%w: NUMAPlatform.Sockets must be ≥1", ErrInvalidPlatform)
	case np.ThreadsPerSocket <= 0 || np.CoresPerSocket <= 0:
		return fmt.Errorf("%w: NUMAPlatform thread/core counts must be positive", ErrInvalidPlatform)
	case np.CoreSpeed <= 0 || np.LineSize <= 0:
		return fmt.Errorf("%w: NUMAPlatform core parameters must be positive", ErrInvalidPlatform)
	case np.LocalCompulsory <= 0 || np.RemoteAdder < 0:
		return fmt.Errorf("%w: NUMAPlatform latencies must be positive", ErrInvalidPlatform)
	case np.SocketPeakBW <= 0 || np.LinkPeakBW <= 0:
		return fmt.Errorf("%w: NUMAPlatform bandwidths must be positive", ErrInvalidPlatform)
	case np.RemoteFraction < 0 || np.RemoteFraction > 1:
		return fmt.Errorf("%w: RemoteFraction must be in [0,1]", ErrInvalidPlatform)
	case np.Queue == nil:
		return fmt.Errorf("%w: NUMAPlatform.Queue must be set", ErrInvalidPlatform)
	}
	if np.Sockets == 1 && np.RemoteFraction > 0 {
		return fmt.Errorf("%w: single socket cannot have remote accesses", ErrInvalidPlatform)
	}
	return nil
}

// UniformInterleave returns the remote fraction of an address space
// interleaved evenly across all sockets: (Sockets−1)/Sockets.
func (np NUMAPlatform) UniformInterleave() float64 {
	if np.Sockets <= 1 {
		return 0
	}
	return float64(np.Sockets-1) / float64(np.Sockets)
}

// WithRemoteFraction returns a copy with a different locality mix.
func (np NUMAPlatform) WithRemoteFraction(f float64) NUMAPlatform {
	np.RemoteFraction = f
	np.Name = fmt.Sprintf("%s@remote=%.0f%%", np.Name, f*100)
	return np
}

// DualSocketBaseline builds the two-socket version of the paper's
// baseline: each socket is the §VI.C.2 single-socket platform, with a
// QPI-era interconnect (60 ns hop, 25 GB/s per direction per socket).
func DualSocketBaseline(curve queueing.Curve) NUMAPlatform {
	single := BaselinePlatform(curve)
	return NUMAPlatform{
		Name:             "dual-socket-baseline",
		Sockets:          2,
		ThreadsPerSocket: single.Threads,
		CoresPerSocket:   single.Cores,
		CoreSpeed:        single.CoreSpeed,
		LineSize:         single.LineSize,
		LocalCompulsory:  single.Compulsory,
		RemoteAdder:      60 * units.Nanosecond,
		SocketPeakBW:     single.PeakBW,
		LinkPeakBW:       units.GBpsOf(25),
		RemoteFraction:   0,
		Queue:            curve,
	}
}
