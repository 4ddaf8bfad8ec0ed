// cipher_audit demonstrates the defender workflow the paper motivates:
// given a cipher the framework has never been tuned for (PRESENT-80 and
// SIMON-64/128 here), measure its fault coverage round by round, find the
// deepest round where faults stop being exploitable, and confirm the
// verdicts with the standalone oracle. No RL is needed for an audit —
// this is the "evaluate the susceptibility of ciphers to FAs" use of the
// tool from the paper's conclusion.
//
// Run with:
//
//	go run ./examples/cipher_audit
package main

import (
	"fmt"
	"log"

	explorefault "repro"
	"repro/internal/ciphers"
	_ "repro/internal/ciphers/gift" // register present80
	_ "repro/internal/ciphers/simonspeck"
	"repro/internal/coverage"
	"repro/internal/prng"
)

func main() {
	for _, name := range []string{"present80", "simon64"} {
		fmt.Printf("== auditing %s ==\n", name)
		audit(name)
		fmt.Println()
	}
}

func audit(name string) {
	rng := prng.New(99)
	info, err := ciphers.Lookup(name)
	if err != nil {
		log.Fatal(err)
	}
	key := make([]byte, info.KeyBytes)
	rng.Fill(key)
	c, err := info.New(key)
	if err != nil {
		log.Fatal(err)
	}

	rep, err := coverage.Scan(c, coverage.Config{
		Samples:       512,
		RandomPerSize: 6,
		Sizes:         []int{2, 4, 8},
	}, rng.Split())
	if err != nil {
		log.Fatal(err)
	}
	groupName := "bytes"
	if info.GroupBits == 4 {
		groupName = "nibbles"
	}
	for _, r := range rep.Rounds {
		fmt.Printf("  round %2d: single bits %2d/%2d exploitable, %s %2d/%2d\n",
			r.Round, r.Bits.Exploitable, r.Bits.Tested, groupName,
			r.Groups.Exploitable, r.Groups.Tested)
	}
	fmt.Printf("  most vulnerable round: %d (of %d)\n", rep.MostVulnerableRound(), info.Rounds)

	// Cross-check one verdict through the public oracle at a higher
	// sample count, the way a certification report would record it.
	round := rep.MostVulnerableRound()
	var pattern explorefault.Pattern
	if info.GroupBits == 4 {
		pattern = explorefault.PatternFromGroups(8*info.BlockBytes, 4, 0)
	} else {
		pattern = explorefault.PatternFromGroups(8*info.BlockBytes, 8, 0)
	}
	a, err := explorefault.Assess(pattern, explorefault.AssessConfig{
		Cipher: name, Key: key, Round: round, Samples: 4096, Seed: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  confirmation: group-0 fault at round %d gives t = %.1f (%s), exploitable = %v\n",
		round, a.T, a.Point, a.Leaky)
}
