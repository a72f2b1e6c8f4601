package main

// Output digests of the default seed's job lists. A change to any
// simulated result, result line or svtsimd body changes them.
const (
	pinnedNestedExits  = "de84ad8e7c5d1be271fee96380f43aba"
	pinnedFleetDensity = "fc4058029167603f41ed2b88e5310663"
	pinnedSvtsimdMix   = "4df9bcd2cfb5321cd70b9176a7b44e1e"
)
