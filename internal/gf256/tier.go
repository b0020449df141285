package gf256

import (
	"os"
	"strings"
)

// Kernel tier ladder. The slice kernels and MulSum dispatch down a fixed
// ladder at startup: GFNI+AVX-512 (64 bytes per GF2P8AFFINEQB) where the
// CPU has it, then AVX2 split-nibble VPSHUFB (32 bytes per iteration, the
// ISA-L table layout) on the vast majority of amd64 deployments that lack
// GFNI, then the portable table loops. MulSum's SIMD tiers keep four
// destination accumulators per loaded source (ISA-L's gf_4vect_dot_prod
// shape); its portable tier is MulSlice plus MulAddSlice per row, the
// reference the tier tests compare against. A range shorter than one
// vector of the active tier drops to the next rung. The GF256_DISABLE
// environment variable forces lower tiers for differential testing and
// CI: a comma-separated list of tier names ("gfni", "avx2", or "all") read
// once at process start.
//
//	GF256_DISABLE=gfni       exercise the AVX2 tier on GFNI hosts
//	GF256_DISABLE=avx2,gfni  force the portable table loops everywhere

// disabledTiers holds the lowercased GF256_DISABLE tokens.
var disabledTiers = parseDisabled(os.Getenv("GF256_DISABLE"))

// parseDisabled splits a GF256_DISABLE value into its tier tokens.
func parseDisabled(s string) map[string]bool {
	m := make(map[string]bool)
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.ToLower(strings.TrimSpace(tok)); tok != "" {
			m[tok] = true
		}
	}
	return m
}

// tierDisabled reports whether GF256_DISABLE names the tier (or "all").
func tierDisabled(name string) bool {
	return disabledTiers[name] || disabledTiers["all"]
}

// Tier names the active kernel tier: "gfni" (GFNI+AVX-512), "avx2"
// (split-nibble VPSHUFB), or "scalar" (portable table loops). Benchmarks
// record it so committed throughput numbers carry their kernel provenance.
func Tier() string {
	switch {
	case useGFNI:
		return "gfni"
	case useAVX2:
		return "avx2"
	default:
		return "scalar"
	}
}
