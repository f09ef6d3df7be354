//! Connection negotiation (§4.3).
//!
//! When a connection is established, the endpoints exchange the chunnel
//! stacks they were given and decide which implementation of each chunnel to
//! use. The submodules implement:
//!
//! - [`types`]: the [`Negotiate`] trait, offers, and wire messages;
//! - [`apply`]: collecting offers from, and applying picks to, typed stacks;
//! - [`pick`]: capability intersection and the operator policy;
//! - [`handshake`]: the on-the-wire protocol, loss-tolerant on datagrams —
//!   one server handshake and one accept loop, whatever the connection is
//!   wrapped with afterwards;
//! - [`wire`]: the framing of that protocol (and every other tag byte in
//!   the workspace); the only module that knows a negotiate-channel tag;
//! - [`dynamic`]: Listing 5's registered-fallback path, where an empty
//!   client stack is dictated by the server;
//! - [`renegotiate`]: mid-connection re-negotiation — epoch-tagged stack
//!   swaps on a live connection, the recovery path when an accelerated
//!   implementation dies after establishment.

pub mod apply;
pub mod dynamic;
pub mod handshake;
pub mod pick;
pub mod renegotiate;
pub mod types;
pub mod wire;

pub use apply::{Apply, GetOffers, NegotiateSlot, SlotApply};
pub use dynamic::{
    global_registry, negotiate_client_dynamic, register_chunnel, DynChunnel, DynRegistry,
};
pub use handshake::{
    client_handshake, negotiate_client, negotiate_server_once, server_handshake, Accepted,
    NegotiateOpts, NegotiatedConn, NegotiatedStream, OfferFilter, Role,
};
pub use pick::{
    candidates_for_slot, pick_slot, pick_stack, Candidate, DefaultPolicy, FnPolicy, Policy,
    PolicyRef,
};
pub use renegotiate::{
    negotiate_server_switchable, negotiate_switchable_client, ConnTelemetry, EpochConn,
    StackFactory, SwitchTarget, SwitchTargetRef, SwitchableConn, SwitchableStream,
};
pub use types::{guid, Endpoints, Negotiate, NegotiateMsg, Offer, Scope, ServerPicks};
