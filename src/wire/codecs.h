#pragma once

/// \file codecs.h
/// Binary codecs for every in-tree protocol message — the registered
/// implementations behind the runtime/wire.h frame driver. This header just
/// aggregates the driver API and the message definitions for convenience
/// (tests, tools); the codec bodies and their registration live in
/// codecs.cpp (wire::detail::register_builtin_codecs()). Each kind has one
/// put, generic over Writer and Sizer, and one get: a frame's size is
/// counted by the same code that writes it.
///
/// The frame and field layout for each wire::Kind is specified in
/// docs/PROTOCOL.md §"Wire format". decode() returns nullptr on any
/// malformed input (truncation, bad tags, bogus counts) — it never throws
/// and never reads out of bounds.

#include "baselines/flooding.h"
#include "baselines/slicing.h"
#include "core/messages.h"
#include "dht/chord.h"
#include "gossip/cyclon.h"
#include "gossip/vicinity.h"
#include "runtime/wire.h"
