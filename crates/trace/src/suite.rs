//! The application suite from Table 1 of the paper and helpers to enumerate
//! and construct it.

use crate::config::GeneratorConfig;
use crate::interleave::Interleaver;
use crate::workloads::{dss, oltp, scientific, web};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The four workload classes the paper groups results by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ApplicationClass {
    /// Online transaction processing (TPC-C).
    Oltp,
    /// Decision support (TPC-H).
    Dss,
    /// Web serving (SPECweb99).
    Web,
    /// Scientific kernels.
    Scientific,
}

impl fmt::Display for ApplicationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ApplicationClass::Oltp => "OLTP",
            ApplicationClass::Dss => "DSS",
            ApplicationClass::Web => "Web",
            ApplicationClass::Scientific => "Scientific",
        };
        write!(f, "{s}")
    }
}

impl ApplicationClass {
    /// All four classes, in the order the paper's figures use.
    pub const ALL: [ApplicationClass; 4] = [
        ApplicationClass::Oltp,
        ApplicationClass::Dss,
        ApplicationClass::Web,
        ApplicationClass::Scientific,
    ];

    /// The applications belonging to this class.
    pub fn applications(self) -> &'static [Application] {
        match self {
            ApplicationClass::Oltp => &[Application::OltpDb2, Application::OltpOracle],
            ApplicationClass::Dss => &[
                Application::DssQry1,
                Application::DssQry2,
                Application::DssQry16,
                Application::DssQry17,
            ],
            ApplicationClass::Web => &[Application::WebApache, Application::WebZeus],
            ApplicationClass::Scientific => {
                &[Application::Em3d, Application::Ocean, Application::Sparse]
            }
        }
    }
}

/// One of the eleven applications evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Application {
    /// TPC-C on IBM DB2 v8 ESE.
    OltpDb2,
    /// TPC-C on Oracle 10g.
    OltpOracle,
    /// TPC-H query 1 (scan-dominated) on DB2.
    DssQry1,
    /// TPC-H query 2 (join-dominated) on DB2.
    DssQry2,
    /// TPC-H query 16 (join-dominated) on DB2.
    DssQry16,
    /// TPC-H query 17 (balanced scan/join) on DB2.
    DssQry17,
    /// SPECweb99 on Apache HTTP Server v2.0.
    WebApache,
    /// SPECweb99 on Zeus Web Server v4.3.
    WebZeus,
    /// em3d electromagnetic kernel.
    Em3d,
    /// ocean current simulation.
    Ocean,
    /// sparse matrix-vector multiply.
    Sparse,
}

impl Application {
    /// All eleven applications in the paper's figure order.
    pub const ALL: [Application; 11] = [
        Application::OltpDb2,
        Application::OltpOracle,
        Application::DssQry1,
        Application::DssQry2,
        Application::DssQry16,
        Application::DssQry17,
        Application::WebApache,
        Application::WebZeus,
        Application::Em3d,
        Application::Ocean,
        Application::Sparse,
    ];

    /// The workload class this application belongs to.
    pub fn class(self) -> ApplicationClass {
        match self {
            Application::OltpDb2 | Application::OltpOracle => ApplicationClass::Oltp,
            Application::DssQry1
            | Application::DssQry2
            | Application::DssQry16
            | Application::DssQry17 => ApplicationClass::Dss,
            Application::WebApache | Application::WebZeus => ApplicationClass::Web,
            Application::Em3d | Application::Ocean | Application::Sparse => {
                ApplicationClass::Scientific
            }
        }
    }

    /// Short name used in reports (matches the paper's figure labels).
    pub fn short_name(self) -> &'static str {
        match self {
            Application::OltpDb2 => "DB2",
            Application::OltpOracle => "Oracle",
            Application::DssQry1 => "Qry1",
            Application::DssQry2 => "Qry2",
            Application::DssQry16 => "Qry16",
            Application::DssQry17 => "Qry17",
            Application::WebApache => "Apache",
            Application::WebZeus => "Zeus",
            Application::Em3d => "em3d",
            Application::Ocean => "ocean",
            Application::Sparse => "sparse",
        }
    }

    /// Builds the globally-interleaved access stream for this application.
    pub fn stream(self, seed: u64, config: &GeneratorConfig) -> Interleaver {
        match self {
            Application::OltpDb2 => oltp::stream(oltp::OltpVariant::Db2, seed, config),
            Application::OltpOracle => oltp::stream(oltp::OltpVariant::Oracle, seed, config),
            Application::DssQry1 => dss::stream(dss::DssQuery::Qry1, seed, config),
            Application::DssQry2 => dss::stream(dss::DssQuery::Qry2, seed, config),
            Application::DssQry16 => dss::stream(dss::DssQuery::Qry16, seed, config),
            Application::DssQry17 => dss::stream(dss::DssQuery::Qry17, seed, config),
            Application::WebApache => web::stream(web::WebServer::Apache, seed, config),
            Application::WebZeus => web::stream(web::WebServer::Zeus, seed, config),
            Application::Em3d => scientific::stream(scientific::ScientificApp::Em3d, seed, config),
            Application::Ocean => {
                scientific::stream(scientific::ScientificApp::Ocean, seed, config)
            }
            Application::Sparse => {
                scientific::stream(scientific::ScientificApp::Sparse, seed, config)
            }
        }
    }
}

impl fmt::Display for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_eleven_unique_applications() {
        let set: std::collections::HashSet<_> = Application::ALL.into_iter().collect();
        assert_eq!(set.len(), 11);
    }

    #[test]
    fn classes_partition_the_suite() {
        let mut count = 0;
        for class in ApplicationClass::ALL {
            for app in class.applications() {
                assert_eq!(app.class(), class);
                count += 1;
            }
        }
        assert_eq!(count, 11);
    }

    #[test]
    fn every_application_produces_a_stream() {
        let config = GeneratorConfig::default().with_cpus(1);
        for app in Application::ALL {
            let n = app.stream(1, &config).take(500).count();
            assert_eq!(n, 500, "{app} produced a short stream");
        }
    }

    #[test]
    fn display_matches_short_name() {
        assert_eq!(Application::OltpDb2.to_string(), "DB2");
        assert_eq!(ApplicationClass::Dss.to_string(), "DSS");
    }
}
