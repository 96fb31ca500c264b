// P2Server -- the paper's auxiliary device P2 (§1.1) as a network service:
// the one-key KsServer, whose store holds the P2 share as default_key_id()
// and answers that key on the ks.* routes (keystore/ks_server.hpp).
#pragma once

#include "keystore/ks_server.hpp"

namespace dlr::service {

template <group::BilinearGroup GG>
using P2Server = keystore::KsServer<GG>;

}  // namespace dlr::service
