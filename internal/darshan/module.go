// Package darshan implements an application-level I/O characterization
// runtime and record model equivalent to the Darshan 3.x tool the paper's
// datasets were collected with.
//
// The package mirrors Darshan's architecture (paper §2.2, Figure 2): an
// instrumentation core observes the I/O operations an application issues
// through each interface module (POSIX, MPI-IO, STDIO, plus a Lustre
// file-system module), accumulates per-(file, rank) counter records, reduces
// records for globally shared files to a single rank −1 record, and emits a
// compressed, versioned log (package logfmt) when the job finalizes.
package darshan

import "fmt"

// ModuleID identifies an instrumentation module within a log. Values are
// stable on disk; never renumber them.
type ModuleID uint8

// The instrumentation modules this runtime implements. These are the three
// I/O interfaces the paper analyzes plus the Lustre module that records
// striping metadata on Lustre-backed files.
const (
	ModulePOSIX  ModuleID = 1
	ModuleMPIIO  ModuleID = 2
	ModuleSTDIO  ModuleID = 3
	ModuleLustre ModuleID = 4
)

// String returns the conventional module name, e.g. "POSIX".
func (m ModuleID) String() string {
	switch m {
	case ModulePOSIX:
		return "POSIX"
	case ModuleMPIIO:
		return "MPI-IO"
	case ModuleSTDIO:
		return "STDIO"
	case ModuleLustre:
		return "LUSTRE"
	case ModuleStdioX:
		return "STDIOX"
	default:
		return fmt.Sprintf("MODULE(%d)", uint8(m))
	}
}

// Modules returns the interface modules in a stable order. The Lustre module
// is included last; it holds metadata rather than I/O operations.
func Modules() []ModuleID {
	return []ModuleID{ModulePOSIX, ModuleMPIIO, ModuleSTDIO, ModuleLustre}
}

// InterfaceModules returns the three I/O interface modules (no Lustre).
func InterfaceModules() []ModuleID {
	return []ModuleID{ModulePOSIX, ModuleMPIIO, ModuleSTDIO}
}

// CounterNames returns the integer-counter name table for a module, in
// counter-index order: the layout the module's records have on disk. The
// names follow Darshan's counter naming, so dumps read like darshan-parser
// output.
func CounterNames(m ModuleID) []string {
	switch m {
	case ModulePOSIX:
		return posixCounterNames[:]
	case ModuleMPIIO:
		return mpiioCounterNames[:]
	case ModuleSTDIO:
		return stdioCounterNames[:]
	case ModuleLustre:
		return lustreCounterNames[:]
	case ModuleStdioX:
		return stdioXCounterNames[:]
	default:
		return nil
	}
}

// FCounterNames returns the floating-point counter name table for a module.
func FCounterNames(m ModuleID) []string {
	switch m {
	case ModulePOSIX:
		return posixFCounterNames[:]
	case ModuleMPIIO:
		return mpiioFCounterNames[:]
	case ModuleSTDIO:
		return stdioFCounterNames[:]
	case ModuleLustre:
		return nil
	default:
		return nil
	}
}

// NumCounters returns the integer-counter record width for a module.
func NumCounters(m ModuleID) int { return len(CounterNames(m)) }

// NumFCounters returns the float-counter record width for a module.
func NumFCounters(m ModuleID) int { return len(FCounterNames(m)) }
