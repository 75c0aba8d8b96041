//! The `DevUdf` facade: one connected plugin session over one project.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

use wireproto::client::FunctionInfo;
use wireproto::{Client, Embedded, EngineTransport, Server, TransferStats};

use crate::debug::{self, DebugOutcome, RunOutcome};
use crate::import_export::{self, ImportReport, UdfSelection};
use crate::project::Project;
use crate::settings::Settings;
use crate::{DevUdfError, Result};

/// A devUDF session: settings + project + live server connection.
///
/// This is the object the IDE facade drives; its methods correspond 1:1 to
/// the plugin's menu entries (Figure 1: Settings, Import UDFs, Export UDFs,
/// plus the Debug command).
pub struct DevUdf {
    pub settings: Settings,
    pub project: Project,
    /// The database, behind the transport abstraction: a wire [`Client`]
    /// (TCP or in-proc channel) or an [`Embedded`] in-process engine —
    /// every session method is transport-agnostic.
    pub(crate) client: Rc<RefCell<dyn EngineTransport>>,
    /// Transfer statistics accumulated across extractions (reported by the
    /// CLI and the benchmarks).
    pub(crate) transfers: Rc<RefCell<Vec<TransferStats>>>,
}

impl DevUdf {
    /// Connect to an in-process server (tests, benchmarks, examples).
    /// The settings' retry policy applies (socket deadlines do not — the
    /// in-process channel has no sockets).
    pub fn connect_in_proc(
        server: &Server,
        settings: Settings,
        project_root: &Path,
    ) -> Result<DevUdf> {
        let client = Client::connect_in_proc_with(
            server,
            &settings.user,
            &settings.password,
            &settings.database,
            settings.client_options(),
        )?;
        Self::with_client(client, settings, project_root)
    }

    /// Connect over TCP using the host/port from the settings; the
    /// settings' retry policy and socket deadlines apply.
    pub fn connect_tcp(settings: Settings, project_root: &Path) -> Result<DevUdf> {
        let addr: std::net::SocketAddr = format!("{}:{}", settings.host, settings.port)
            .parse()
            .map_err(|e| DevUdfError::Config(format!("bad host/port: {e}")))?;
        let client = Client::connect_tcp_with(
            addr,
            &settings.user,
            &settings.password,
            &settings.database,
            settings.client_options(),
        )?;
        Self::with_client(client, settings, project_root)
    }

    /// Embed the engine in-process ("MonetDBLite mode", DESIGN §17): no
    /// server, no wire. `settings.storage.data_dir` picks the persistent
    /// directory (WAL + snapshots, replayed here on open); empty means a
    /// fresh in-memory engine. The settings' interp mode is applied to
    /// the embedded engine exactly as the demo server applies it, so the
    /// three-way interpreter matrix behaves identically on both
    /// transports. `configure` runs against the engine before the
    /// session starts (seed data, rng seeds).
    pub fn connect_embedded(
        settings: Settings,
        project_root: &Path,
        configure: impl FnOnce(&monetlite::Engine),
    ) -> Result<DevUdf> {
        let embedded = if settings.storage.data_dir.is_empty() {
            Embedded::in_memory()
        } else {
            Embedded::open(&settings.storage.data_dir, settings.storage.options())?
        };
        embedded
            .engine()
            .set_exec_mode(settings.interp.pylite_mode());
        embedded.engine().set_inline(settings.interp.inline());
        configure(embedded.engine());
        Self::with_client(embedded, settings, project_root)
    }

    fn with_client(
        client: impl EngineTransport + 'static,
        settings: Settings,
        project_root: &Path,
    ) -> Result<DevUdf> {
        let project = Project::open(project_root)?;
        settings.save(project.root())?;
        Ok(DevUdf {
            settings,
            project,
            client: Rc::new(RefCell::new(client)),
            transfers: Rc::new(RefCell::new(Vec::new())),
        })
    }

    /// Shared transport handle (used internally and by the workflow
    /// driver).
    pub fn client(&self) -> Rc<RefCell<dyn EngineTransport>> {
        self.client.clone()
    }

    /// Names of UDFs stored on the server (the Import dialog's list).
    pub fn server_functions(&self) -> Result<Vec<String>> {
        Ok(self.client.borrow_mut().list_functions()?)
    }

    /// Full metadata of one server-side UDF.
    pub fn function_info(&self, name: &str) -> Result<FunctionInfo> {
        Ok(self.client.borrow_mut().get_function(name)?)
    }

    /// Import every UDF stored in the server ("import all functions",
    /// Figure 3a).
    pub fn import_all(&mut self) -> Result<ImportReport> {
        import_export::import_udfs(self, UdfSelection::All)
    }

    /// Import a selection of UDFs (Figure 3a).
    pub fn import(&mut self, names: &[&str]) -> Result<ImportReport> {
        import_export::import_udfs(
            self,
            UdfSelection::Named(names.iter().map(|s| s.to_string()).collect()),
        )
    }

    /// Export edited UDFs back to the server (Figure 3b).
    pub fn export(&mut self, names: &[&str]) -> Result<Vec<String>> {
        import_export::export_udfs(self, names)
    }

    /// Fetch the input data for `udf` by running the settings' debug query
    /// with the UDF call intercepted (§2.2), and store it as `input.bin`.
    pub fn fetch_inputs(&mut self, udf: &str) -> Result<TransferStats> {
        debug::fetch_inputs(self, udf)
    }

    /// Run an imported UDF locally (no debugger).
    pub fn run_udf(&mut self, name: &str) -> Result<RunOutcome> {
        debug::run_local(self, name, None)
    }

    /// Run an imported UDF locally under the interactive debugger.
    pub fn debug_udf(
        &mut self,
        name: &str,
        debugger: Rc<RefCell<pylite::Debugger>>,
    ) -> Result<DebugOutcome> {
        debug::debug_local(self, name, debugger)
    }

    /// Execute arbitrary SQL on the server (the traditional workflow path).
    pub fn server_query(&mut self, sql: &str) -> Result<wireproto::message::WireResult> {
        Ok(self.client.borrow_mut().query(sql)?)
    }

    /// Execute SQL with end-to-end tracing: the query travels inside a
    /// traced wire envelope, the server ships its spans back, and the
    /// combined client→wire→engine→UDF tree is returned rendered (the
    /// body of `devudf trace`). The rendered string is empty when
    /// telemetry is off.
    pub fn server_query_traced(
        &mut self,
        sql: &str,
    ) -> Result<(wireproto::message::WireResult, String)> {
        let (result, records) = self.client.borrow_mut().query_traced(sql)?;
        let tree = obs::trace::render_tree(&obs::trace::assemble(&records));
        Ok((result, tree))
    }

    /// Run an imported UDF locally with the line profiler armed and
    /// return its per-line hit/time report (the body of `devudf
    /// profile`).
    pub fn profile_udf(&mut self, name: &str) -> Result<debug::ProfileReport> {
        debug::profile_local(self, name)
    }

    /// All transfer statistics recorded so far.
    pub fn transfer_log(&self) -> Vec<TransferStats> {
        self.transfers.borrow().clone()
    }
}
