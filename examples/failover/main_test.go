package main

// Example pins how each update machinery copes with a mid-game crash; no
// figure carries the broadcast row.
func Example() {
	main()
	// Output:
	// scenario                      failed  live  at_final  converged
	// push/unicast                      15   105       105       100%
	// push/multicast (no repair)        15   105        61        58%
	// push/multicast (repair)           15   105       105       100%
	// push/broadcast                    15   105        73        70%
	//
	// The unrepaired tree strands every server below a dead relay — the paper's
	// argument that multicast needs structure maintenance; repair closes the gap.
}
