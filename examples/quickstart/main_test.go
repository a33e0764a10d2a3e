package main

// Example pins the headline comparison README quotes: HAT cuts provider update
// messages by ~90% and update network load by ~70% against TTL.
func Example() {
	main()
	// Output:
	// system  server_staleness_s  update_msgs  provider_msgs  update_load_km
	// TTL                   30.3         3580           3580        23923513
	// HAT                   27.3         3220            244         6490989
	//
	// HAT cuts provider update messages by 93% and update network load by 73%,
	// while keeping server staleness in the same TTL-bounded band (paper Section 5.3).
}
