// Package mms is the public facade of the IEC 61850 MMS implementation:
// object references, typed values and the client used to talk to virtual
// IEDs (legitimately, or from an attacker via repro/attack).
//
// It re-exports the internal implementation (repro/internal/mms) so
// experiment code never needs an internal import; the protocol details
// (TPKT framing over netem's frame reader, BER PDUs, the server side) live on
// the internal package.
package mms
