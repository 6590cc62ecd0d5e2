package iosim

import (
	"fmt"

	"iolayers/internal/darshan"
)

// Client options only the external tests set; production clients take the
// cost models, retry policy and clock origin the layers were built with.

// WithInterfaceConfig overrides one interface's cost model.
func WithInterfaceConfig(m darshan.ModuleID, cfg InterfaceConfig) ClientOption {
	return func(c *Client) {
		switch m {
		case darshan.ModulePOSIX:
			c.posix = cfg
		case darshan.ModuleSTDIO:
			c.stdio = cfg
		case darshan.ModuleMPIIO:
			c.mpiio = cfg
		default:
			panic(fmt.Sprintf("iosim: no interface config for module %v", m))
		}
	}
}

// WithRetryPolicy overrides the client's reaction to injected transient
// errors and stalled operations.
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// WithJobStart anchors the client's clock at t0 seconds on the campaign
// timeline, aligning its operations with the layers' fault windows.
func WithJobStart(t0 float64) ClientOption {
	return func(c *Client) { c.jobStart = t0 }
}
