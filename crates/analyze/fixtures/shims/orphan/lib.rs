// Fixture for the `shim-hygiene` rule: a shim no manifest in this
// fixture tree depends on (`rand`, beside it, has a user and is clean).
