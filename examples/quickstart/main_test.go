package main

// Example pins the headline comparison README quotes: HAT cuts provider update
// messages by ~90% and update network load by ~70% against TTL.
func Example() {
	main()
	// Output:
	// system  server_staleness_s  update_msgs  provider_msgs  update_load_km
	// TTL                   30.0         3590           3590        23992100
	// HAT                   27.4         3473            308         7101726
	//
	// HAT cuts provider update messages by 91% and update network load by 70%,
	// while keeping server staleness in the same TTL-bounded band (paper Section 5.3).
}
